// In-process workloads: GdrSessions driven to kDone by the ground-truth
// UserOracle from a single client thread (closed loop: the next call is
// made when the previous one returns).
//
//   gdr-learn       full GDR on 4k-row samples, every row present at Start.
//   nolearn-stream  GDR-NoLearning on 6k-row samples; the last quarter of
//                   each sample is admitted in 50-row chunks between batches.
//
// Inputs are seeded samples of the default dataset1 population (20k rows,
// one hospital fleet), exported as csv: workloads. A pass runs one session
// per sample, each from Resolve of its csv spec to kDone; a run repeats
// identical passes until --seconds have elapsed, so the count and quality
// metrics of every pass must agree exactly.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "core/session.h"
#include "instances.h"
#include "probes.h"
#include "sim/oracle.h"
#include "stats.h"
#include "workload/registry.h"

namespace loopbench {
namespace {

struct InProcessConfig {
  gdr::Strategy strategy = gdr::Strategy::kGdr;
  std::size_t samples = 0;         // sessions per pass
  std::size_t rows = 0;            // per sample
  std::size_t held_back_rows = 0;  // admitted in chunks after Start
  std::size_t chunk_rows = 0;
  bool exact_precision = false;    // every change must be right
};

InProcessConfig ConfigFor(const std::string& workload) {
  if (workload == "gdr-learn") {
    return {gdr::Strategy::kGdr, 4, 4000, 0, 0, false};
  }
  return {gdr::Strategy::kGdrNoLearning, 4, 6000, 1500, 50, true};
}

// What one session contributes to its pass.
struct SessionResult {
  double setup_s = 0;
  double machine_s = 0;
  std::vector<double> round_ms;
  std::size_t labels = 0;
  RepairQuality quality;
};

// Sets up, drives and checks one session. Returns nullopt when a call
// failed (counted; the session is abandoned).
std::optional<SessionResult> RunSession(RunContext& ctx,
                                        const InProcessConfig& config,
                                        const Instance& instance,
                                        std::uint32_t id,
                                        LayerSamples& layers) {
  SessionResult result;
  ScopedSpan session_span(&ctx.tracer, "session", id);
  double resolve_s = 0;
  gdr::Result<gdr::Dataset> resolved =
      TimeCall(ctx, "workload.resolve", id, &resolve_s, [&] {
        return gdr::WorkloadRegistry::Global().Resolve(instance.spec);
      });
  if (!ctx.ops.Count(Op::kOpen, resolved.ok())) {
    std::fprintf(stderr, "resolve %s: %s\n", instance.spec.c_str(),
                 resolved.status().ToString().c_str());
    return std::nullopt;
  }
  gdr::Dataset& ds = *resolved;
  if (ctx.traced()) {
    layers.resolve_ms.push_back(resolve_s * 1e3);
    ProbeSetupLayers(ctx, id, ds.dirty, ds.rules, instance.chunks, &layers);
  }

  gdr::GdrOptions options;
  options.strategy = config.strategy;
  options.seed = ctx.seed;
  options.num_threads = 1;  // parallel ranking is not what this measures
  gdr::GdrSession session(&ds.dirty, &ds.rules, options);
  double start_s = 0;
  const gdr::Status started = TimeCall(ctx, "core.start", id, &start_s,
                                       [&] { return session.Start(); });
  if (!started.ok()) {
    std::fprintf(stderr, "start %s: %s\n", instance.spec.c_str(),
                 started.ToString().c_str());
    ++ctx.ops.failed[static_cast<std::size_t>(Op::kOpen)];
    return std::nullopt;
  }
  result.setup_s = resolve_s + start_s;
  std::optional<LiveProbes> probes;
  if (ctx.traced()) {
    probes.emplace(ctx, id, &layers, session,
                   config.strategy == gdr::Strategy::kGdr);
  }

  gdr::UserOracle oracle(&instance.sample.clean);
  double round = 0;  // submits since the last pull, then the pull itself
  std::size_t next_chunk = 0;
  std::size_t appended_rows = 0;
  auto pull = [&]() -> std::optional<std::vector<gdr::SuggestedUpdate>> {
    double secs = 0;
    auto batch = TimeCall(ctx, "core.next", id, &secs,
                          [&] { return session.NextBatch(); });
    if (!ctx.ops.Count(Op::kNext, batch.ok())) return std::nullopt;
    result.machine_s += secs;
    result.round_ms.push_back((round + secs) * 1e3);
    round = 0;
    if (ctx.traced()) layers.next_ms.push_back(secs * 1e3);
    return std::move(*batch);
  };
  auto append = [&]() -> bool {
    const auto& chunk = instance.chunks[next_chunk];
    double secs = 0;
    auto outcome = TimeCall(ctx, "core.append", id, &secs,
                            [&] { return session.AppendDirtyRows(chunk); });
    if (!ctx.ops.Count(Op::kAppend, outcome.ok())) return false;
    ++next_chunk;
    appended_rows += chunk.size();
    result.machine_s += secs;
    layers.append_ms.push_back(secs * 1e3);
    return true;
  };

  std::size_t batch_no = 0;
  auto batch = pull();
  while (batch) {
    if (batch->empty()) {
      if (next_chunk == instance.chunks.size()) break;  // done, all admitted
      if (!append()) return std::nullopt;
      batch = pull();
      continue;
    }
    for (const gdr::SuggestedUpdate& suggestion : *batch) {
      if (!session.IsLive(suggestion.update_id)) continue;
      const gdr::Feedback answer =
          oracle.GetFeedback(session.table(), suggestion.update);
      const std::optional<std::string> value =
          answer == gdr::Feedback::kReject
              ? oracle.SuggestValue(session.table(), suggestion.update)
              : std::nullopt;
      if (probes) probes->BeforeSubmit(suggestion.update, answer);
      double secs = 0;
      auto outcome = TimeCall(ctx, "core.submit", id, &secs, [&] {
        return session.SubmitFeedback(suggestion.update_id, answer, value);
      });
      if (!ctx.ops.Count(Op::kSubmit, outcome.ok())) return std::nullopt;
      result.machine_s += secs;
      round += secs;
      if (ctx.traced()) layers.submit_us.push_back(secs * 1e6);
      if (*outcome == gdr::FeedbackOutcome::kApplied) ++result.labels;
    }
    if (probes) probes->AfterBatch(++batch_no);
    if (next_chunk < instance.chunks.size() && !append()) return std::nullopt;
    batch = pull();
  }
  if (!batch) return std::nullopt;

  // Checks, against the tables the benchmark holds.
  const std::string where = ctx.workload + " session " + std::to_string(id);
  auto check = [&](const std::string& failure) {
    if (!failure.empty()) ctx.Fail(where + ": " + failure);
  };
  if (session.state() != gdr::SessionState::kDone) {
    check("session ended in state " +
          std::string(gdr::SessionStateName(session.state())));
  }
  if (result.labels != session.stats().user_feedback) {
    check(std::to_string(result.labels) +
          " answers applied, the session counted " +
          std::to_string(session.stats().user_feedback));
  }
  const std::size_t rows = instance.initial_rows + appended_rows;
  const Grid dirty = ToGrid(instance.sample.dirty, rows);
  const Grid clean = ToGrid(instance.sample.clean, rows);
  const Grid final_grid = ToGrid(session.table());
  std::string shape_error;
  result.quality = CompareCells(dirty, final_grid, clean, &shape_error);
  check(shape_error);
  if (config.exact_precision) check(CheckExactPrecision(result.quality));
  check(CheckIndexRebuild(session.table(), ds.rules, session.engine().index()));
  check(CheckRowsAndDomain(final_grid, dirty, clean, ds.rules));
  if (ctx.traced()) layers.AddTimings(session.stats().timings);
  return result;
}

}  // namespace

void RunInProcess(RunContext& ctx) {
  const InProcessConfig config = ConfigFor(ctx.workload);
  gdr::Result<const gdr::Dataset*> population = Population("dataset1");
  if (!population.ok()) {
    ctx.Fail("dataset1 population: " + population.status().ToString());
    return;
  }
  std::vector<std::unique_ptr<Instance>> instances;
  for (std::size_t j = 0; j < config.samples; ++j) {
    auto instance = MakeInstance(
        **population, ctx.seed * config.samples + j, config.rows,
        config.held_back_rows, config.chunk_rows,
        ctx.work_dir / ("sample" + std::to_string(j)));
    if (!instance.ok()) {
      ctx.Fail("sample " + std::to_string(j) + ": " +
               instance.status().ToString());
      return;
    }
    instances.push_back(std::move(*instance));
  }

  // round_ms pools every round for the description on standard error; the
  // reported percentiles are each pass's, medianed over passes like
  // machine_s, so one slow pass does not lift the tail.
  std::vector<double> setup_s, machine_s, round_ms, labels, f1;
  std::vector<double> round_p50, round_p95;
  LayerSamples layers;
  double sessions = 0;
  const std::int64_t start = NowNs();
  for (std::uint32_t pass = 0; AnotherPass(start, ctx.seconds, pass); ++pass) {
    double setup = 0, machine = 0, pass_labels = 0;
    std::vector<double> pass_rounds;
    RepairQuality quality;
    bool complete = true;
    for (std::size_t j = 0; j < instances.size(); ++j) {
      const auto id = static_cast<std::uint32_t>(pass * instances.size() + j);
      std::optional<SessionResult> r =
          RunSession(ctx, config, *instances[j], id, layers);
      if (!r) {
        std::fprintf(stderr, "%s: session %u abandoned after a failed call\n",
                     ctx.workload.c_str(), id);
        complete = false;
        continue;
      }
      ++sessions;
      setup += r->setup_s;
      machine += r->machine_s;
      pass_labels += static_cast<double>(r->labels);
      pass_rounds.insert(pass_rounds.end(), r->round_ms.begin(),
                         r->round_ms.end());
      quality.changed += r->quality.changed;
      quality.correct_changes += r->quality.correct_changes;
      quality.initially_wrong += r->quality.initially_wrong;
    }
    if (!complete) continue;  // a partial pass is not comparable
    setup_s.push_back(setup);
    machine_s.push_back(machine);
    round_p50.push_back(Median(pass_rounds));
    round_p95.push_back(TailOrZero(pass_rounds, 950));
    round_ms.insert(round_ms.end(), pass_rounds.begin(), pass_rounds.end());
    labels.push_back(pass_labels);
    f1.push_back(quality.f1());
  }
  if (machine_s.empty()) {
    ctx.Fail(ctx.workload + ": no pass completed");
    return;
  }
  for (std::size_t i = 1; i < labels.size(); ++i) {
    if (labels[i] != labels[0] || f1[i] != f1[0]) {
      ctx.Fail(ctx.workload + ": pass " + std::to_string(i) +
               " differs from the first in user_labels or repair_f1");
    }
  }
  std::fprintf(stderr, "%s: %zu passes of %zu sessions\n", ctx.workload.c_str(),
               machine_s.size(), instances.size());
  PrintPerPass("machine_s", machine_s);
  PrintPerPass("round_ms.p95", round_p95);
  Describe("round_ms", round_ms);
  Describe("append_ms", layers.append_ms);

  ctx.Report("setup_s", Median(setup_s));
  ctx.Report("machine_s", Median(machine_s));
  ctx.Report("round_ms.p50", Median(round_p50));
  ctx.Report("round_ms.p95", Median(round_p95));
  ctx.Report("user_labels", labels[0]);
  ctx.Report("repair_f1", f1[0]);
  layers.Report(ctx, sessions, Median(machine_s));
}

}  // namespace loopbench
