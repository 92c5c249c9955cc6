// loopbench: end-to-end benchmark of the GDR repair loop.
//
//   loopbench --workload <gdr-learn|nolearn-stream|service-spill>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir DIR] [--trace-dir DIR]
//
// Prints one "ops" line per kind of operation, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones, and the spans are written to
// DIR/<workload>-seed<n>.tsv. Exits 1 when a correctness check fails and
// 2 on a usage error. loopbench/run.py builds this binary and runs it.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "bench.h"
#include "util/strings.h"

namespace loopbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by every workload from the untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"machine_s", "s"},
    {"round_ms.p50", "ms"},    {"round_ms.p95", "ms"},
    {"user_labels", "count"},  {"repair_f1", "ratio"},
    {"peak_rss_mb", "MiB"},
};

// Reported from the traced run; 0 where a workload never exercises the
// layer (no appends in gdr-learn, no server outside service-spill).
constexpr MetricDef kPerLayer[] = {
    {"append_ms.p50", "ms"},
    {"rehydrate_ms.p50", "ms"},
    {"rehydrate_ms.p95", "ms"},
    {"trace.machine_s", "s"},
    {"cfd.index_build_ms", "ms"},
    {"cfd.append_us_per_row", "us"},
    {"cfd.hypo_count_ns", "ns"},
    {"repair.seed_pool_ms", "ms"},
    {"repair.generate_us", "us"},
    {"core.next_ms.p50", "ms"},
    {"core.next_ms.p95", "ms"},
    {"core.submit_us.p50", "us"},
    {"core.submit_us.p95", "us"},
    {"core.group_ms.p50", "ms"},
    {"core.rank_pass_ms.p50", "ms"},
    {"core.voi_probe_ns", "ns"},
    {"core.encode_ns", "ns"},
    {"core.tree_walk_ns", "ns"},
    {"ml.retrain_ms.p50", "ms"},
    {"ml.retrains", "count"},
    {"workload.resolve_ms", "ms"},
    {"core.replay_us_per_event", "us"},
    {"server.evict_ms.p50", "ms"},
    {"server.spill_kb.p50", "KiB"},
    {"server.replay_events.p50", "count"},
    {"server.resident_hit_ratio", "ratio"},
};

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "loopbench: %s\nusage: loopbench --workload "
               "<gdr-learn|nolearn-stream|service-spill> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir DIR] "
               "[--trace-dir DIR]\n",
               message.c_str());
  std::exit(2);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace
}  // namespace loopbench

int main(int argc, char** argv) {
  using namespace loopbench;
  RunContext ctx;
  bool traced = false;
  std::filesystem::path work_root = ".bench_build/work";
  std::filesystem::path trace_dir = ".bench_build/traces";
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      auto seed = gdr::ParseUint64(value, "--seed");
      if (!seed.ok()) Usage(seed.status().ToString());
      ctx.seed = *seed;
    } else if (flag == "--seconds") {
      auto seconds = gdr::ParseDouble(value, "--seconds");
      if (!seconds.ok() || !(*seconds > 0) || *seconds > 3600) {
        Usage("--seconds must be in (0, 3600]");
      }
      ctx.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      traced = value == "1";
    } else if (flag == "--work-dir") {
      work_root = value;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      Usage("unknown flag " + std::string(flag));
    }
  }
  const bool service = ctx.workload == "service-spill";
  if (!service && ctx.workload != "gdr-learn" &&
      ctx.workload != "nolearn-stream") {
    Usage("unknown workload '" + ctx.workload + "'");
  }
  ctx.tracer = Tracer(traced);
  ctx.work_dir = std::filesystem::absolute(
      work_root / (ctx.workload + "-seed" + std::to_string(ctx.seed) +
                   (traced ? "-traced" : "")));
  std::error_code ec;
  std::filesystem::remove_all(ctx.work_dir, ec);
  std::filesystem::create_directories(ctx.work_dir, ec);
  if (ec) Usage("cannot create " + ctx.work_dir.string());

  if (service) {
    RunService(ctx);
  } else {
    RunInProcess(ctx);
  }
  ctx.Report("peak_rss_mb", PeakRssMiB());
  std::filesystem::remove_all(ctx.work_dir, ec);

  if (traced) {
    std::filesystem::create_directories(trace_dir, ec);
    const std::string path =
        (trace_dir / (ctx.workload + "-seed" + std::to_string(ctx.seed) +
                      ".tsv"))
            .string();
    const gdr::Status written = ctx.tracer.WriteTsv(path);
    if (!written.ok()) ctx.Fail(written.ToString());
    std::fprintf(stderr, "trace: %zu spans -> %s; self time by layer:\n",
                 ctx.tracer.spans().size(), path.c_str());
    for (const auto& [name, ns] : SelfTimeByName(ctx.tracer.spans())) {
      std::fprintf(stderr, "  %-22s %10.3f ms\n", name.c_str(), ns * 1e-6);
    }
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (std::size_t k = 0; k < kOpNames.size(); ++k) {
    std::printf("ops %-9s attempted=%zu failed=%zu\n", kOpNames[k],
                ctx.ops.attempted[k], ctx.ops.failed[k]);
    attempted += ctx.ops.attempted[k];
    failed += ctx.ops.failed[k];
  }
  for (const std::string& failure : ctx.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }

  std::string metrics;
  auto emit = [&](const MetricDef& def) {
    const auto it = ctx.metrics.find(def.name);
    const double value = it == ctx.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      ctx.Fail(std::string(def.name) + " is not finite");
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name,
                  std::isfinite(value) ? value : 0.0, def.unit);
    metrics += buf;
    std::fprintf(stderr, "metric %-26s %14.6g %s\n", def.name, value, def.unit);
  };
  if (traced) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) {
      if (!ctx.metrics.contains(def.name)) {
        ctx.Fail(std::string("end-to-end metric ") + def.name +
                 " was not measured");
      }
      emit(def);
    }
  }
  const bool correct = ctx.check_failures.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
