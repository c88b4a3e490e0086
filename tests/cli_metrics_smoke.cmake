# CLI metrics smoke: an engine-mode batch with --metrics must print the
# engine's job counter, its job latency histogram and the default
# portfolio's tabu member, and must print nothing for the deleted annealing
# member.
#
#   cmake -DPPNPART=<path to the ppnpart binary> -P cli_metrics_smoke.cmake
execute_process(
  COMMAND "${PPNPART}" --workload mjpeg --portfolio default --jobs 4
          --similarity on --metrics --quiet
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ppnpart exited with ${rc}:\n${out}")
endif()
foreach(line "counter engine\\.jobs 4\n" "histogram engine\\.job\\.time_us "
        "counter engine\\.member\\.tabu\\.runs ")
  if(NOT out MATCHES "(^|\n)${line}")
    message(FATAL_ERROR "no line matching '${line}' in:\n${out}")
  endif()
endforeach()
if(out MATCHES "engine\\.member\\.annealing")
  message(FATAL_ERROR "an engine.member.annealing line in:\n${out}")
endif()
