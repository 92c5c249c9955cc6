#ifndef LOOPBENCH_PROBES_H_
#define LOOPBENCH_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "bench.h"
#include "cfd/cfd.h"
#include "core/learner_bank.h"
#include "core/session.h"
#include "data/table.h"
#include "instances.h"

namespace loopbench {

// Per-layer samples, pooled over a run. Most are filled only in the traced
// run; append and rehydrate latencies are recorded in every run.
struct LayerSamples {
  std::vector<double> append_ms, rehydrate_ms;
  std::vector<double> resolve_ms, index_build_ms, seed_pool_ms;
  double generate_s = 0, generate_calls = 0;
  double append_index_s = 0, append_index_rows = 0;
  std::vector<double> next_ms, submit_us;
  double hypo_ns = 0, hypo_calls = 0;
  std::vector<double> group_ms, rank_ms, retrain_ms;
  double retrains = 0;
  double probe_s = 0, probes = 0, encode_s = 0, walk_s = 0, inferences = 0;
  std::vector<double> evict_ms, spill_kb, replay_events;
  double replay_s = 0, replayed_events = 0;
  double touches = 0, rehydrations = 0;

  // Adds the session's own phase counters (GdrStats::timings).
  void AddTimings(const gdr::GdrTimings& timings);

  // Reports every per-layer metric; `sessions` scales the per-session
  // retrain count, `machine_s` is the run's median machine time.
  void Report(RunContext& ctx, double sessions, double machine_s) const;
};

// The set-up path layer by layer, on components the benchmark owns: index
// build, pool seeding and UpdateAttributeTuple over a copy of `initial`,
// and `chunks` appended to a standalone index over another copy.
void ProbeSetupLayers(RunContext& ctx, std::uint32_t session,
                      const gdr::Table& initial, const gdr::RuleSet& rules,
                      const RowChunks& chunks, LayerSamples* samples);

// Probes of a live in-process session: a mirror LearnerBank fed the same
// answers (retrained after each batch), and at checkpoints read-only
// queries of the live index: hypothetical violation counts, grouping and
// a full VOI rank pass with p̃ from the mirror. None of it touches the
// session's own components, whose counters it would disturb.
class LiveProbes {
 public:
  LiveProbes(RunContext& ctx, std::uint32_t session, LayerSamples* samples,
             const gdr::GdrSession& live, bool learns);

  void BeforeSubmit(const gdr::Update& update, gdr::Feedback feedback);
  void AfterBatch(std::size_t batch_no);

 private:
  RunContext& ctx_;
  std::uint32_t session_;
  LayerSamples& s_;
  const gdr::GdrSession& live_;
  bool learns_;
  gdr::LearnerBank mirror_;
  std::set<gdr::AttrId> touched_;
};

}  // namespace loopbench

#endif  // LOOPBENCH_PROBES_H_
