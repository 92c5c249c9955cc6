// Forest retraining cost inside whole GDR runs: for each workload, runs
// RunStrategyExperiment once (GDR, seed 42, unlimited budget) and prints one
// JSON object with the retrain phase (GdrTimings::learner_retrain_*), the
// session's machine time and the run's deterministic outputs, so two builds
// can be compared run for run. Each line carries the run's user-feedback
// count and final loss: two builds that train identical forests print
// identical values there. Repeated runs are separate invocations.
//
// Flags: --workload=name:key=val,... (repeatable; default
//         dataset1:records=1000,seed=42 and dataset1:records=5000,seed=42)
//
// Example:
//   ./build/bench/bench_retrain
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "sim/experiment.h"

namespace gdr {
namespace {

int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  for (const std::string& spec : bench::WorkloadSpecsOrDefaults(
           flags, {"dataset1:records=1000,seed=42",
                   "dataset1:records=5000,seed=42"})) {
    auto dataset = bench::ResolveWorkloadCachedOrReport(spec);
    if (!dataset.ok()) return 2;
    ExperimentConfig config;
    config.strategy = Strategy::kGdr;
    config.seed = 42;
    auto result = RunStrategyExperiment(**dataset, config);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    const GdrTimings& timings = result->stats.timings;
    std::printf(
        "{\"workload\": \"%s\", \"strategy\": \"%s\", "
        "\"retrain_seconds\": %.6f, \"retrains\": %llu, "
        "\"total_seconds\": %.6f, \"wall_seconds\": %.6f, "
        "\"user_feedback\": %zu, \"final_loss\": %.17g}\n",
        spec.c_str(), result->strategy_name.c_str(),
        timings.learner_retrain_seconds,
        static_cast<unsigned long long>(timings.learner_retrains),
        timings.total_seconds, result->wall_seconds,
        result->stats.user_feedback, result->final_loss);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace gdr

int main(int argc, char** argv) { return gdr::Main(argc, argv); }
