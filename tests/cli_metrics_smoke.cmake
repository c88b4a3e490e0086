# CLI metrics smoke: an engine-mode batch with --metrics must print the
# engine's job counter and its job latency histogram.
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
foreach(line "counter engine\\.jobs 4\n" "histogram engine\\.job\\.time_us ")
  if(NOT out MATCHES "(^|\n)${line}")
    message(FATAL_ERROR "no line matching '${line}' in:\n${out}")
  endif()
endforeach()
