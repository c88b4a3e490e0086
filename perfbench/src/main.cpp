// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--toy] [--trace-out FILE] [--git-commit SHA]
//   perfbench --self-check
//
// Prints an environment stamp line, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics (from the benchmark's own spans and the
// library's PhaseProfile) with --trace 1. Normally started by run.py, which
// builds it first.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "support/thread_pool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pn100k_serial|pn100k_parallel|service_mix --seed N --seconds S "
               "--trace 0|1 [--toy] [--trace-out FILE] [--git-commit SHA]\n"
               "       perfbench --self-check\n",
               why);
  return 2;
}

std::uint32_t parallel_threads() {
  // min(4, cores), but at least 2 chunks so the parallel path runs even on
  // a one-core box (deterministic answers do not depend on the count).
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return std::max(2u, std::min(4u, cores));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string trace_out, git_commit = "unknown";
  bool have_workload = false, self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--toy") {
      opt.toy = true;
    } else if (arg == "--self-check") {
      self = true;
    } else if ((v = value()) == nullptr) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--trace-out") {
      trace_out = v;
    } else if (arg == "--git-commit") {
      git_commit = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  // Timings from an unoptimized or assertion-checked build are not
  // comparable with anything; refuse them outright.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (build_type != "Release" || !ndebug) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build (NDEBUG %s); "
                 "build with CMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), ndebug ? "on" : "off");
    return 3;
  }

  if (self) return self_check() == 0 ? 0 : 1;
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  const double rate = service_rate(opt.toy);
  const unsigned pool = ppnpart::support::ThreadPool::global().size();
  const std::string env =
      std::string("{\"workload\": \"") + json_escape(opt.workload) +
      "\", \"seed\": " + std::to_string(opt.seed) +
      ", \"seconds\": " + json_number(opt.seconds) +
      ", \"trace\": " + (opt.trace ? "true" : "false") +
      ", \"toy\": " + (opt.toy ? "true" : "false") +
      ", \"cores\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"pool_threads\": " + std::to_string(pool) +
      ", \"parallel_threads\": " + std::to_string(parallel_threads()) +
      ", \"service_mix_rate_rps\": " + json_number(rate) +
      ", \"compiler\": \"" + json_escape(__VERSION__) +
      "\", \"build_type\": \"" + json_escape(build_type) +
      "\", \"git_commit\": \"" + json_escape(git_commit) + "\"}";
  std::printf("{\"env\": %s}\n", env.c_str());
  std::fflush(stdout);

  SpanRecorder rec(opt.trace);
  Result result;
  if (opt.workload == "pn100k_serial") {
    result = run_pn(opt, 1, rec);
  } else if (opt.workload == "pn100k_parallel") {
    result = run_pn(opt, parallel_threads(), rec);
  } else if (opt.workload == "service_mix") {
    result = run_service_mix(opt, rate, rec);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  if (opt.trace && !trace_out.empty() && !rec.write_chrome(trace_out, env))
    std::fprintf(stderr, "perfbench: could not write %s\n", trace_out.c_str());
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
