// mlec_perfbench: one workload of the mlec++ benchmark per invocation.
//
//   mlec_perfbench --workload <paper-sweep|crosscheck|daemon|repair>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --root <checkout root> --work-dir <scratch dir>
//
// Prints the host description, each metric by name and unit, and as the
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs carry the end-to-end metrics, traced runs the per-layer
// ones. perfbench/run.py builds this program and supplies --root and
// --work-dir.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "ec/backend.hpp"

#ifndef MLEC_PERFBENCH_COMPILER
#define MLEC_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "mlec_perfbench: " << why
            << "\nusage: mlec_perfbench --workload <paper-sweep|crosscheck|daemon|repair> "
               "--seed <n> --seconds <s> --trace <0|1> --root <dir> --work-dir <dir>\n";
  std::exit(2);
}

void print_metric(const Metric& m) {
  std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // One worker everywhere the library would size a pool from the host, so
  // results do not depend on nproc (campaign shard counts are pinned by the
  // workloads themselves).
  setenv("MLEC_THREADS", "1", 1);

  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::atof(value.c_str());
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--root") options.root = value;
    else if (flag == "--work-dir") options.work_dir = value;
    else usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 != 1) usage("flags take one value each");
  if (options.root.empty() || options.work_dir.empty()) usage("--root and --work-dir are required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  ::mkdir(options.work_dir.c_str(), 0755);

  void (*workload)(const Options&, Report&) = nullptr;
  if (options.workload == "paper-sweep") workload = run_paper_sweep;
  else if (options.workload == "crosscheck") workload = run_crosscheck;
  else if (options.workload == "daemon") workload = run_daemon;
  else if (options.workload == "repair") workload = run_repair;
  else usage(("unknown workload '" + options.workload + "'").c_str());

  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::printf("# host.cpu        %s\n", cpu_model().c_str());
  std::printf("# host.nproc      %u\n", std::thread::hardware_concurrency());
  std::printf("# compiler        %s\n", MLEC_PERFBENCH_COMPILER);
  std::printf("# git.sha         %s\n", sha && *sha ? sha : "unknown");
  std::printf("# ec.backend      %s\n", mlec::ec::to_string(mlec::ec::active_backend()));
  std::printf("# state_dir.fs    %s (daemon state dirs go under %s)\n",
              filesystem_type(options.work_dir).c_str(), options.work_dir.c_str());
  std::printf("# workload        %s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  try {
    workload(options, report);
    if (options.trace) run_layer_probes(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mlec_perfbench: %s\n", e.what());
    return 1;
  }
  if (options.trace) {
    const std::string path = options.work_dir + "/trace-" + options.workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    if (tracer().dump(path)) std::printf("# trace written   %s\n", path.c_str());
  }

  auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  // JSON has no encoding for inf/nan: a non-finite metric makes the run
  // incorrect instead of producing an unparseable line.
  for (Metric& m : metrics)
    if (!std::isfinite(m.value)) {
      report.check(false, m.name + " is not finite");
      m.value = 0.0;
    }
  for (const Metric& m : report.info) print_metric(m);
  for (const Metric& m : metrics) print_metric(m);
  std::printf("# attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), report.correct ? "true" : "false");

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
