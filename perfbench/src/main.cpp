// perfbench: one seeded run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the run with
// host-time spans around every call into a layer and reports the per-layer
// ledger. The last stdout line is the JSON result; the exit code is 0 only
// when every correctness gate held. perfbench/run.py builds and drives it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <malloc.h>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunSettings;
using perfbench::Tracer;

struct WorkloadEntry {
  const char* name;
  void (*run)(const RunSettings&, Tracer&, Report&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"paper-matrix", perfbench::RunPaperMatrix},
    {"adaptive-stream", perfbench::RunAdaptiveStream},
    {"tiered-serve", perfbench::RunTieredServe},
    {"trace-replay", perfbench::RunTraceReplay},
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\nworkloads:",
               problem.c_str());
  for (const WorkloadEntry& entry : kWorkloads) {
    std::fprintf(stderr, " %s", entry.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

RunSettings ParseArgs(int argc, char** argv) {
  RunSettings settings;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        settings.workload = value;
      } else if (flag == "--seed") {
        settings.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        settings.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        settings.trace = value == "1";
      } else if (flag == "--work-dir") {
        settings.work_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (settings.workload.empty() || !have_seed || settings.work_dir.empty()) {
    Usage("--workload, --seed and --work-dir are required");
  }
  if (!(settings.seconds > 0.0 && settings.seconds <= 3600.0)) {
    Usage("--seconds must be in (0, 3600]");
  }
  return settings;
}

std::string EnvNote(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? "unset" : std::string(value) + " (ignored)";
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, so large
  // buffers go back to the kernel when freed and peak_rss_mb follows the
  // memory the program holds, not how the heap happened to grow. Fixing
  // it also fixes the trim threshold; raise that so the heap is not handed
  // back and refaulted between setup repetitions (the reset before the
  // timed passes trims explicitly).
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  RunSettings settings = ParseArgs(argc, argv);
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& candidate : kWorkloads) {
    if (settings.workload == candidate.name) entry = &candidate;
  }
  if (entry == nullptr) Usage("unknown workload '" + settings.workload + "'");
  settings.threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 2u);

  Report report;
  report.Setting("workload", settings.workload);
  report.Setting("seed", std::to_string(settings.seed));
  report.Setting("seconds", std::to_string(settings.seconds));
  report.Setting("trace", settings.trace ? "1" : "0");
  report.Setting("obs (ObsConfig)", "disabled");
  report.Setting("RTMPLACE_THREADS", EnvNote("RTMPLACE_THREADS"));
  report.Setting("RTMPLACE_EFFORT", EnvNote("RTMPLACE_EFFORT"));
  report.Setting("client model", "closed loop, one client");
  try {
    std::filesystem::create_directories(settings.work_dir);
    Tracer tracer(settings.trace);
    entry->run(settings, tracer, report);
    if (settings.trace) {
      tracer.PrintSummary();
      const std::string path = settings.work_dir + "/spans-" +
                               settings.workload + "-" +
                               std::to_string(settings.seed) + ".json";
      tracer.WriteJson(path);
      report.Setting("host-time spans", path);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
  report.Emit(settings.trace);
  return report.correct() ? 0 : 1;
}
