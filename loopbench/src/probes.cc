#include "probes.h"

#include <algorithm>
#include <string>

#include "cfd/violation_index.h"
#include "core/grouping.h"
#include "core/voi.h"
#include "repair/consistency_manager.h"
#include "stats.h"

namespace loopbench {
namespace {

// Checkpoint cadence (in answered batches) of the live-index probes.
constexpr std::size_t kCheckpointEvery = 16;
// Dirty rows whose every attribute UpdateAttributeTuple is timed on.
constexpr std::size_t kGenerateRows = 400;

double PerItem(double total, double items, double scale) {
  return items == 0 ? 0.0 : total * scale / items;
}

}  // namespace

void LayerSamples::AddTimings(const gdr::GdrTimings& t) {
  probe_s += t.voi_probe_seconds;
  probes += static_cast<double>(t.voi_probes);
  encode_s += t.learner_encode_seconds;
  walk_s += t.learner_tree_walk_seconds;
  inferences += static_cast<double>(t.learner_inferences);
}

void LayerSamples::Report(RunContext& ctx, double sessions,
                          double machine_s) const {
  ctx.Report("append_ms.p50", Median(append_ms));
  ctx.Report("rehydrate_ms.p50", Median(rehydrate_ms));
  ctx.Report("rehydrate_ms.p95", TailOrZero(rehydrate_ms, 950));
  ctx.Report("trace.machine_s", machine_s);
  ctx.Report("cfd.index_build_ms", Median(index_build_ms));
  ctx.Report("cfd.append_us_per_row",
             PerItem(append_index_s, append_index_rows, 1e6));
  ctx.Report("cfd.hypo_count_ns", PerItem(hypo_ns, hypo_calls, 1.0));
  ctx.Report("repair.seed_pool_ms", Median(seed_pool_ms));
  ctx.Report("repair.generate_us", PerItem(generate_s, generate_calls, 1e6));
  ctx.Report("core.next_ms.p50", Median(next_ms));
  ctx.Report("core.next_ms.p95", TailOrZero(next_ms, 950));
  ctx.Report("core.submit_us.p50", Median(submit_us));
  ctx.Report("core.submit_us.p95", TailOrZero(submit_us, 950));
  ctx.Report("core.group_ms.p50", Median(group_ms));
  ctx.Report("core.rank_pass_ms.p50", Median(rank_ms));
  ctx.Report("core.voi_probe_ns", PerItem(probe_s, probes, 1e9));
  ctx.Report("core.encode_ns", PerItem(encode_s, inferences, 1e9));
  ctx.Report("core.tree_walk_ns", PerItem(walk_s, inferences, 1e9));
  ctx.Report("ml.retrain_ms.p50", Median(retrain_ms));
  ctx.Report("ml.retrains", sessions == 0 ? 0.0 : retrains / sessions);
  ctx.Report("workload.resolve_ms", Median(resolve_ms));
  ctx.Report("core.replay_us_per_event",
             PerItem(replay_s, replayed_events, 1e6));
  ctx.Report("server.evict_ms.p50", Median(evict_ms));
  ctx.Report("server.spill_kb.p50", Median(spill_kb));
  ctx.Report("server.replay_events.p50", Median(replay_events));
  ctx.Report("server.resident_hit_ratio",
             touches == 0 ? 0.0 : 1.0 - rehydrations / touches);
}

void ProbeSetupLayers(RunContext& ctx, std::uint32_t session,
                      const gdr::Table& initial, const gdr::RuleSet& rules,
                      const RowChunks& chunks, LayerSamples* s) {
  double secs = 0;
  {
    gdr::Table copy = initial;
    TimeCall(ctx, "cfd.index_build", session, &secs, [&] {
      return std::make_unique<gdr::ViolationIndex>(&copy, &rules);
    });
    s->index_build_ms.push_back(secs * 1e3);
  }
  {
    gdr::Table copy = initial;
    gdr::ViolationIndex index(&copy, &rules);
    gdr::UpdatePool pool;
    gdr::RepairState state;
    gdr::UpdateGenerator generator(&index, &copy, &state);
    gdr::ConsistencyManager manager(&index, &pool, &state, &generator);
    TimeCall(ctx, "repair.seed_pool", session, &secs,
             [&] { return manager.Initialize(); });
    s->seed_pool_ms.push_back(secs * 1e3);
    const std::vector<gdr::RowId> dirty = manager.DirtyRows();
    const std::size_t rows = std::min(dirty.size(), kGenerateRows);
    std::size_t calls = 0;
    TimeCall(ctx, "repair.generate", session, &secs, [&] {
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t a = 0; a < copy.num_attrs(); ++a) {
          generator.UpdateAttributeTuple(dirty[i], static_cast<gdr::AttrId>(a));
          ++calls;
        }
      }
      return calls;
    });
    s->generate_s += secs;
    s->generate_calls += static_cast<double>(calls);
  }
  if (chunks.empty()) return;
  gdr::Table copy = initial;
  gdr::ViolationIndex index(&copy, &rules);
  for (const auto& chunk : chunks) {
    const bool ok = TimeCall(ctx, "cfd.append_rows", session, &secs,
                             [&] { return index.AppendRows(chunk).ok(); });
    if (!ok) ctx.Fail("cfd.append_rows: standalone append failed");
    s->append_index_s += secs;
    s->append_index_rows += static_cast<double>(chunk.size());
  }
}

LiveProbes::LiveProbes(RunContext& ctx, std::uint32_t session,
                       LayerSamples* samples, const gdr::GdrSession& live,
                       bool learns)
    : ctx_(ctx),
      session_(session),
      s_(*samples),
      live_(live),
      learns_(learns),
      mirror_(&live.table(), &live.engine().index()) {}

void LiveProbes::BeforeSubmit(const gdr::Update& update,
                              gdr::Feedback feedback) {
  if (!learns_) return;
  if (!mirror_.AddFeedback(update, feedback).ok()) {
    ctx_.Fail("ml: mirror AddFeedback failed");
  }
  touched_.insert(update.attr);
}

void LiveProbes::AfterBatch(std::size_t batch_no) {
  const gdr::LearnerBankOptions defaults;
  double secs = 0;
  for (const gdr::AttrId attr : touched_) {
    if (mirror_.TrainingExamples(attr) < defaults.min_training_examples) {
      continue;  // Retrain is a no-op below the threshold
    }
    const bool ok = TimeCall(ctx_, "ml.retrain", session_, &secs,
                             [&] { return mirror_.Retrain(attr).ok(); });
    if (!ok) ctx_.Fail("ml: mirror Retrain failed");
    s_.retrain_ms.push_back(secs * 1e3);
    ++s_.retrains;
  }
  touched_.clear();
  if (batch_no % kCheckpointEvery != 0) return;

  const gdr::GdrEngine& engine = live_.engine();
  const gdr::ViolationIndex& index = engine.index();
  const std::vector<gdr::Update> pooled = engine.pool().All();
  std::int64_t total = 0;
  TimeCall(ctx_, "cfd.hypo_count", session_, &secs, [&] {
    for (const gdr::Update& u : pooled) {
      total += index.HypotheticalViolatedRuleCount(u.row, u.attr, u.value);
    }
    return total;
  });
  if (total < 0) ctx_.Fail("cfd: negative hypothetical violation count");
  s_.hypo_ns += secs * 1e9;
  s_.hypo_calls += static_cast<double>(pooled.size());

  const std::vector<gdr::UpdateGroup> groups =
      TimeCall(ctx_, "core.group", session_, &secs,
               [&] { return gdr::GroupUpdates(engine.pool()); });
  s_.group_ms.push_back(secs * 1e3);

  gdr::VoiRanker ranker(&index, &engine.rule_weights());
  gdr::LearnerBank* mirror = &mirror_;
  ranker.set_batch_probability_fn(
      [mirror](std::span<const gdr::Update> updates, std::vector<double>* out) {
        mirror->ConfirmProbabilities(updates, out);
      });
  const gdr::VoiRanker::Ranking ranking =
      TimeCall(ctx_, "core.rank_pass", session_, &secs, [&] {
        return ranker.Rank(groups, [mirror](const gdr::Update& u) {
          return mirror->ConfirmProbability(u);
        });
      });
  if (ranking.order.size() != groups.size()) {
    ctx_.Fail("core: rank pass does not order every group");
  }
  s_.rank_ms.push_back(secs * 1e3);
}

}  // namespace loopbench
