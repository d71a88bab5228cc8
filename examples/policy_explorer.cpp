// Policy explorer: a small CLI over the experiment harness.  Runs one
// workload under one (or all) systems with overridable knobs, and can emit
// CSV/JSON for plotting.
//
//   $ ./build/examples/policy_explorer --workload Redis --system Gemini
//   $ ./build/examples/policy_explorer --workload Canneal --all
//         --frag 0.9 --host-frag 0.95 --ops 200000 --csv results.csv
//     (one command line, wrapped here)
//
// Flags:
//   --workload NAME   workload from the Table 2 catalogue (default Canneal)
//   --system NAME     one of the eight systems (default Gemini)
//   --all             run all eight systems instead
//   --reused          reused-VM scenario instead of clean slate
//   --frag F          guest fragmentation FMFI target (default 0.8)
//   --host-frag F     host fragmentation FMFI target (default 0.85)
//   --unfragmented    disable fragmentation entirely
//   --ops N           override the workload's operation count
//   --seed N          experiment seed (default 17)
//   --csv PATH        also write results as CSV
//   --json PATH       also write results as JSON
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "metrics/export.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload NAME] [--system NAME | --all]\n"
               "          [--reused] [--frag F] [--host-frag F]\n"
               "          [--unfragmented] [--ops N] [--seed N]\n"
               "          [--csv PATH] [--json PATH]\n",
               argv0);
  std::exit(2);
}

harness::SystemKind SystemByName(const std::string& name) {
  for (harness::SystemKind kind : harness::AllSystems()) {
    if (name == std::string(harness::SystemName(kind))) {
      return kind;
    }
  }
  std::fprintf(stderr, "unknown system '%s'; valid:", name.c_str());
  for (harness::SystemKind kind : harness::AllSystems()) {
    std::fprintf(stderr, " %s", std::string(harness::SystemName(kind)).c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name = "Canneal";
  std::string system_name = "Gemini";
  bool all_systems = false;
  bool reused = false;
  std::string csv_path;
  std::string json_path;
  harness::BedOptions bed;
  uint64_t ops_override = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = next();
    } else if (arg == "--system") {
      system_name = next();
    } else if (arg == "--all") {
      all_systems = true;
    } else if (arg == "--reused") {
      reused = true;
    } else if (arg == "--frag") {
      bed.fragmentation_target = std::strtod(next(), nullptr);
    } else if (arg == "--host-frag") {
      bed.host_fragmentation_target = std::strtod(next(), nullptr);
    } else if (arg == "--unfragmented") {
      bed.fragmented = false;
    } else if (arg == "--ops") {
      ops_override = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      bed.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--json") {
      json_path = next();
    } else {
      Usage(argv[0]);
    }
  }

  workload::WorkloadSpec spec = workload::SpecByName(workload_name);
  if (ops_override != 0) {
    spec.ops = ops_override;
  }
  std::vector<harness::SystemKind> systems =
      all_systems ? harness::AllSystems()
                  : std::vector<harness::SystemKind>{SystemByName(system_name)};

  std::printf("%-13s %10s %10s %10s %9s %8s\n", "system", "thr", "mean",
              "p99", "missrate", "aligned");
  std::vector<workload::RunResult> results;
  results.reserve(systems.size());
  std::vector<metrics::ResultRow> rows;
  for (harness::SystemKind kind : systems) {
    results.push_back(reused ? harness::RunReusedVm(kind, spec, bed)
                             : harness::RunCleanSlate(kind, spec, bed));
    const workload::RunResult& r = results.back();
    std::printf("%-13s %10.3f %10.0f %10.0f %8.1f%% %7.0f%%\n",
                std::string(harness::SystemName(kind)).c_str(), r.throughput,
                r.mean_latency, r.p99_latency, 100.0 * r.tlb_miss_rate,
                100.0 * r.alignment.well_aligned_rate);
  }
  for (size_t i = 0; i < systems.size(); ++i) {
    rows.push_back(metrics::ResultRow{
        workload_name, std::string(harness::SystemName(systems[i])),
        &results[i]});
  }
  if (!csv_path.empty()) {
    metrics::WriteFile(csv_path, metrics::ToCsv(rows));
    std::printf("wrote %s\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    metrics::WriteFile(json_path, metrics::ToJson(rows));
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
