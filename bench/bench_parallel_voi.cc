// Serial-vs-parallel VOI ranking on the Dataset 1 workload.
//
// Measures one full VoiRanker::Rank() pass (the Step-4 inner loop of
// Procedure 1) over the engine's real candidate pool, ranking the same
// groups with 1 worker (serial path) and with pools of 2/4/8 workers, and
// verifies the parallel scores are bit-identical to the serial ones —
// parallelism must only buy wall-clock, never change the chosen group.
//
// Emits a machine-readable BENCH_voi.json next to the human-readable
// table so the repo's bench trajectory is trackable across commits. It
// records absolute seconds per thread count and no ratio: the 1-thread
// pass moves by up to 2x run to run on a shared host, so a ratio against
// it reports host noise. `hardware_concurrency` is recorded so a 1-core
// result is not mistaken for a regression.
//
// Also emits BENCH_hotpath.json: the single-thread hot-path numbers
// (index-build seconds, UpdateBenefit ns/update with one HypotheticalBatch
// staged per group, full serial Rank() seconds) so the perf trajectory
// tracks single-thread constant factors, not just parallel speedup — on
// 1-core bench hardware the constant factors are the whole story.
// Per-group-size buckets and a group-size histogram localize where the
// probe time goes. Exit 2 = a parallel ranking differs from the serial
// one.
//
// The `learner` section measures p~ with real trained committees: the
// bank learns from ground-truth oracle feedback over the whole pool, then
// ConfirmProbability per update and ConfirmProbabilities per group run as
// interleaved pairs that alternate which side goes first (same flat
// forests, same thermal state), plus end-to-end Rank with and without the
// batch fn at 1..T threads, timed the same way, with
// scores_match/order_match flags. The learner numbers are medians over
// the repeats. The bank's phase counters (feature-encode / tree-walk
// seconds) land in the JSON so the learner's share of ranking time is
// trackable. Exit 2 also covers any batched-vs-scalar probability or
// ranking divergence; exit 3 fires when the batched learner path loses to
// the per-update path (median against median).
//
// Flags: --workload=name:key=val,... (default dataset1, parameterized by
//        the legacy flags below; the first workload is measured)
//        --records=N (default 20000) --seed=S (default 42)
//        --repeats=R (default 5; best-of for the thread table, medians of
//        interleaved pairs for the learner section) --threads-max=T
//        (default 8)
//        --out=PATH (default BENCH_voi.json)
//        --hotpath-out=PATH (default BENCH_hotpath.json)
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/grouping.h"
#include "core/learner_bank.h"
#include "core/session.h"
#include "core/voi.h"
#include "sim/oracle.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace gdr {
namespace {

struct Measurement {
  std::size_t threads = 1;
  double seconds = 0.0;   // best-of-repeats for one full Rank() pass
  bool scores_match = true;
};

// Power-of-two-ish group-size buckets for the per-bucket hot-path numbers:
// batching amortizes staging over group size, so the win should grow with
// the bucket and the size-1 bucket bounds the staging overhead.
struct Bucket {
  const char* label;
  std::size_t max;  // inclusive upper bound on group size
};

constexpr std::size_t kNumBuckets = 6;

std::array<Bucket, kNumBuckets> BucketBounds() {
  return {{{"1", 1},
           {"2-3", 3},
           {"4-7", 7},
           {"8-15", 15},
           {"16-31", 31},
           {"32+", static_cast<std::size_t>(-1)}}};
}

std::size_t BucketOf(std::size_t size) {
  if (size <= 1) return 0;
  if (size <= 3) return 1;
  if (size <= 7) return 2;
  if (size <= 15) return 3;
  if (size <= 31) return 4;
  return 5;
}

// Median of a non-empty sample.
double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

// Runs `first` and `second` back to back, `first` leading when
// `first_leads`: the timed sides of an interleaved pair. Alternating the
// lead across pairs lets drift and cache warmth fall on both sides alike.
template <typename First, typename Second>
void RunPair(bool first_leads, First&& first, Second&& second) {
  if (first_leads) {
    first();
    second();
  } else {
    second();
    first();
  }
}

double TimeRank(const VoiRanker& ranker, const std::vector<UpdateGroup>& groups,
                int repeats, VoiRanker::Ranking* out) {
  double best = -1.0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    *out = ranker.Rank(groups, [](const Update& u) { return u.score; });
    const double seconds = watch.ElapsedSeconds();
    if (best < 0.0 || seconds < best) best = seconds;
  }
  return best;
}

int RunBench(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const std::size_t records =
      static_cast<std::size_t>(flags.GetInt("records", 20000));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const int repeats =
      std::max(1, static_cast<int>(flags.GetInt("repeats", 5)));
  const std::size_t threads_max =
      static_cast<std::size_t>(flags.GetInt("threads-max", 8));

  // This bench measures exactly one workload: resolve only the first
  // --workload occurrence rather than materializing all of them.
  std::vector<std::string> specs = flags.GetStrings("workload");
  if (specs.empty()) {
    specs = {"dataset1:records=" + std::to_string(records) +
             ",seed=" + std::to_string(seed)};
  } else if (specs.size() > 1) {
    std::printf("note: measuring only the first workload (%s)\n",
                specs.front().c_str());
    specs.resize(1);
  }
  const auto resolved = bench::ResolveWorkloadCachedOrReport(specs.front());
  if (!resolved.ok()) return 1;
  const Dataset& dataset = **resolved;
  // Report the resolved instance, not the flag defaults: with --workload
  // the --records/--seed flags play no part in what was measured.
  const std::size_t resolved_rows = dataset.dirty.num_rows();

  // Real engine state: Start() detects violations and seeds the pool
  // exactly as the interactive loop would see it on round one. The session
  // is only a component bag here: its engine's index, rule weights and
  // pool.
  Table working = dataset.dirty;
  GdrSession session(&working, &dataset.rules);
  if (Status status = session.Start(); !status.ok()) {
    std::printf("start: %s\n", status.ToString().c_str());
    return 1;
  }
  const GdrEngine& engine = session.engine();
  const std::vector<UpdateGroup> groups = GroupUpdates(engine.pool());
  std::size_t updates = 0;
  for (const UpdateGroup& group : groups) updates += group.size();
  std::printf("== bench_parallel_voi: %s ==\n", dataset.name.c_str());
  std::printf(
      "workload=%s records=%zu groups=%zu updates=%zu repeats=%d "
      "hw_threads=%u\n",
      specs.front().c_str(), resolved_rows, groups.size(), updates, repeats,
      std::thread::hardware_concurrency());

  // Serial reference (one reused HypotheticalBatch — what Rank always does).
  // One untimed pass first: the first Rank after setup runs cold and would
  // otherwise inflate the 1-thread row.
  VoiRanker serial(&engine.index(), &engine.rule_weights());
  VoiRanker::Ranking reference =
      serial.Rank(groups, [](const Update& u) { return u.score; });
  const double serial_seconds = TimeRank(serial, groups, repeats, &reference);

  // ---- Single-thread hot-path section (BENCH_hotpath.json) ------------
  // Index build: full scan over the dirty instance.
  double build_seconds = -1.0;
  for (int r = 0; r < repeats; ++r) {
    Table rebuild_table = dataset.dirty;
    Stopwatch watch;
    ViolationIndex rebuilt(&rebuild_table, &dataset.rules);
    const double seconds = watch.ElapsedSeconds();
    if (rebuilt.TotalViolations() != engine.index().TotalViolations()) {
      std::printf("index rebuild mismatch\n");
      return 1;
    }
    if (build_seconds < 0.0 || seconds < build_seconds) {
      build_seconds = seconds;
    }
  }

  // UpdateBenefit over every pooled update with one HypotheticalBatch
  // staged per group — the ranking inner loop without the p~ factor.
  const std::array<Bucket, kNumBuckets> bucket_bounds = BucketBounds();
  std::array<std::size_t, kNumBuckets> bucket_groups{};
  std::array<std::size_t, kNumBuckets> bucket_updates{};
  std::map<std::size_t, std::size_t> size_histogram;
  for (const UpdateGroup& group : groups) {
    const std::size_t b = BucketOf(group.size());
    ++bucket_groups[b];
    bucket_updates[b] += group.size();
    ++size_histogram[group.size()];
  }

  double batched_seconds = -1.0;
  std::array<double, kNumBuckets> batched_bucket_seconds{};
  double benefit_sum = 0.0;  // consumed below so the loop cannot be elided
  for (int r = 0; r < repeats; ++r) {
    HypotheticalBatch batch(&engine.index());
    std::array<double, kNumBuckets> buckets{};
    double total = 0.0;
    benefit_sum = 0.0;
    for (const UpdateGroup& group : groups) {
      Stopwatch watch;
      for (const Update& update : group.updates) {
        benefit_sum += serial.UpdateBenefit(update, &batch);
      }
      const double seconds = watch.ElapsedSeconds();
      buckets[BucketOf(group.size())] += seconds;
      total += seconds;
    }
    if (batched_seconds < 0.0 || total < batched_seconds) {
      batched_seconds = total;
      batched_bucket_seconds = buckets;
    }
  }
  const double ns_per_update_batched =
      updates == 0 ? 0.0 : batched_seconds / updates * 1e9;
  std::printf(
      "hotpath: build=%.4fs benefit-batched=%.0fns serial-rank=%.4fs "
      "benefit-sum=%.6g\n",
      build_seconds, ns_per_update_batched, serial_seconds, benefit_sum);
  std::printf("%10s %7s %8s %11s\n", "group-size", "groups", "updates",
              "batched-ns");
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    if (bucket_groups[b] == 0) continue;
    const double n = static_cast<double>(bucket_updates[b]);
    std::printf("%10s %7zu %8zu %11.0f\n", bucket_bounds[b].label,
                bucket_groups[b], bucket_updates[b],
                batched_bucket_seconds[b] / n * 1e9);
  }

  // ---- Learner-inference section (BENCH_hotpath.json "learner") -------
  // Train the bank the way a real session would: the simulated user
  // answers every pooled update from ground truth, the bank retrains once
  // per attribute. Attributes below min_training_examples stay on the
  // score fallback — `trained_attrs` records how many actually predict.
  UserOracle oracle(&dataset.clean, {});
  LearnerBank bank(&working, &engine.index(), {});
  for (const UpdateGroup& group : groups) {
    for (const Update& update : group.updates) {
      const Feedback feedback = oracle.GetFeedback(working, update);
      if (Status status = bank.AddFeedback(update, feedback); !status.ok()) {
        std::printf("learner feedback: %s\n", status.ToString().c_str());
        return 1;
      }
    }
  }
  std::size_t trained_attrs = 0;
  for (std::size_t a = 0; a < working.num_attrs(); ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    if (Status status = bank.Retrain(attr); !status.ok()) {
      std::printf("learner retrain: %s\n", status.ToString().c_str());
      return 1;
    }
    if (bank.IsTrained(attr)) ++trained_attrs;
  }

  // p~ over the whole pool, both ways: one scalar ConfirmProbability call
  // per update vs one ConfirmProbabilities matrix call per group (the
  // ranking path). Each repeat walks the groups once and times both sides
  // on every group as an interleaved pair, so a burst of host noise lands
  // on both sides alike; the gate compares the medians of the per-repeat
  // totals. Identical committees, so the probabilities must be
  // bit-identical.
  std::vector<double> per_update_probs(updates, 0.0);
  std::vector<double> batched_probs(updates, 0.0);
  std::vector<double> prob_out;
  std::vector<double> per_update_prob_samples;
  std::vector<double> batched_prob_samples;
  for (int r = 0; r < repeats; ++r) {
    double per_update_total = 0.0;
    double batched_total = 0.0;
    std::size_t offset = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::vector<Update>& group_updates = groups[g].updates;
      RunPair(
          (r + g) % 2 == 0,
          [&] {
            Stopwatch watch;
            for (std::size_t i = 0; i < group_updates.size(); ++i) {
              per_update_probs[offset + i] =
                  bank.ConfirmProbability(group_updates[i]);
            }
            per_update_total += watch.ElapsedSeconds();
          },
          [&] {
            Stopwatch watch;
            bank.ConfirmProbabilities(std::span<const Update>(group_updates),
                                      &prob_out);
            batched_total += watch.ElapsedSeconds();
            std::copy(prob_out.begin(), prob_out.end(),
                      batched_probs.begin() + offset);
          });
      offset += group_updates.size();
    }
    per_update_prob_samples.push_back(per_update_total);
    batched_prob_samples.push_back(batched_total);
  }
  const double per_update_prob_seconds = Median(per_update_prob_samples);
  const double batched_prob_seconds = Median(batched_prob_samples);
  const bool learner_scores_match = per_update_probs == batched_probs;
  const double ns_confirm_per_update =
      updates == 0 ? 0.0 : per_update_prob_seconds / updates * 1e9;
  const double ns_confirm_batched =
      updates == 0 ? 0.0 : batched_prob_seconds / updates * 1e9;
  const double learner_batched_speedup =
      batched_prob_seconds > 0.0
          ? per_update_prob_seconds / batched_prob_seconds
          : 0.0;
  std::printf(
      "learner: trained-attrs=%zu confirm-per-update=%.0fns "
      "confirm-batched=%.0fns (%.2fx) probabilities-match=%s\n",
      trained_attrs, ns_confirm_per_update, ns_confirm_batched,
      learner_batched_speedup, learner_scores_match ? "yes" : "NO");

  // End-to-end Rank with the live learner in the loop, with the batch fn
  // installed and without it (scalar p~ per update), at every thread
  // count, as interleaved pairs (medians over the repeats). Scores AND
  // order must match the 1-thread scalar reference.
  struct LearnerRank {
    std::size_t threads = 1;
    double batched_seconds = 0.0;
    double per_update_seconds = 0.0;
    bool scores_match = true;
    bool order_match = true;
  };
  const ConfirmProbabilityFn learner_scalar = [&bank](const Update& update) {
    return bank.ConfirmProbability(update);
  };
  std::vector<LearnerRank> learner_ranks;
  VoiRanker::Ranking learner_reference;
  bool learner_rank_match = true;
  for (std::size_t threads = 1; threads <= threads_max; threads *= 2) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    VoiRanker batched_ranker(&engine.index(), &engine.rule_weights(),
                             pool.get());
    batched_ranker.set_batch_probability_fn(
        [&bank](std::span<const Update> updates, std::vector<double>* out) {
          bank.ConfirmProbabilities(updates, out);
        });
    const VoiRanker per_update_ranker(&engine.index(), &engine.rule_weights(),
                                      pool.get());
    LearnerRank lr;
    lr.threads = threads;
    VoiRanker::Ranking batched_ranking;
    VoiRanker::Ranking per_update_ranking;
    std::vector<double> batched_samples;
    std::vector<double> per_update_samples;
    for (int r = 0; r < repeats; ++r) {
      RunPair(
          r % 2 == 0,
          [&] {
            Stopwatch watch;
            per_update_ranking = per_update_ranker.Rank(groups, learner_scalar);
            per_update_samples.push_back(watch.ElapsedSeconds());
          },
          [&] {
            Stopwatch watch;
            batched_ranking = batched_ranker.Rank(groups, learner_scalar);
            batched_samples.push_back(watch.ElapsedSeconds());
          });
    }
    lr.batched_seconds = Median(batched_samples);
    lr.per_update_seconds = Median(per_update_samples);
    if (threads == 1) learner_reference = per_update_ranking;
    lr.scores_match = batched_ranking.scores == learner_reference.scores &&
                      per_update_ranking.scores == learner_reference.scores;
    lr.order_match = batched_ranking.order == learner_reference.order &&
                     per_update_ranking.order == learner_reference.order;
    learner_rank_match =
        learner_rank_match && lr.scores_match && lr.order_match;
    learner_ranks.push_back(lr);
  }
  std::printf("%8s %16s %19s %8s %13s %12s\n", "threads", "rank-batched-s",
              "rank-per-update-s", "speedup", "scores-match", "order-match");
  for (const LearnerRank& lr : learner_ranks) {
    std::printf("%8zu %16.4f %19.4f %7.2fx %13s %12s\n", lr.threads,
                lr.batched_seconds, lr.per_update_seconds,
                lr.batched_seconds > 0.0
                    ? lr.per_update_seconds / lr.batched_seconds
                    : 0.0,
                lr.scores_match ? "yes" : "NO",
                lr.order_match ? "yes" : "NO");
  }
  // The bank's phase counters, accumulated over everything above — the
  // same numbers GdrStats::timings and the server `stats` reply surface.
  const PerfCounters& bank_perf = bank.perf_counters();

  std::vector<Measurement> results;
  results.push_back({1, serial_seconds, true});
  for (std::size_t threads = 2; threads <= threads_max; threads *= 2) {
    ThreadPool pool(threads);
    VoiRanker ranker(&engine.index(), &engine.rule_weights(), &pool);
    VoiRanker::Ranking ranking;
    Measurement m;
    m.threads = threads;
    m.seconds = TimeRank(ranker, groups, repeats, &ranking);
    m.scores_match = ranking.scores == reference.scores &&
                     ranking.order == reference.order;
    results.push_back(m);
  }

  std::printf("%8s %14s %14s\n", "threads", "rank-seconds", "scores-match");
  bool all_match = true;
  for (const Measurement& m : results) {
    std::printf("%8zu %14.4f %14s\n", m.threads, m.seconds,
                m.scores_match ? "yes" : "NO");
    all_match = all_match && m.scores_match;
  }

  const std::string out_path = flags.GetString("out", "BENCH_voi.json");
  if (FILE* out = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"parallel_voi\",\n"
                 "  \"dataset\": \"%s\",\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"records\": %zu,\n"
                 "  \"groups\": %zu,\n"
                 "  \"updates\": %zu,\n"
                 "  \"repeats\": %d,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"results\": [\n",
                 dataset.name.c_str(), specs.front().c_str(), resolved_rows,
                 groups.size(), updates, repeats,
                 std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Measurement& m = results[i];
      std::fprintf(out,
                   "    {\"threads\": %zu, \"rank_seconds\": %.6f, "
                   "\"scores_match\": %s}%s\n",
                   m.threads, m.seconds,
                   m.scores_match ? "true" : "false",
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("could not write %s\n", out_path.c_str());
  }

  const std::string hotpath_path =
      flags.GetString("hotpath-out", "BENCH_hotpath.json");
  if (FILE* out = std::fopen(hotpath_path.c_str(), "w")) {
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"hotpath\",\n"
        "  \"dataset\": \"%s\",\n"
        "  \"workload\": \"%s\",\n"
        "  \"records\": %zu,\n"
        "  \"groups\": %zu,\n"
        "  \"updates\": %zu,\n"
        "  \"repeats\": %d,\n"
        "  \"hardware_concurrency\": %u,\n"
        "  \"index_build_seconds\": %.6f,\n"
        "  \"update_benefit_ns_batched\": %.1f,\n"
        "  \"serial_rank_seconds\": %.6f,\n"
        "  \"scores_match\": %s,\n",
        dataset.name.c_str(), specs.front().c_str(), resolved_rows,
        groups.size(), updates, repeats, std::thread::hardware_concurrency(),
        build_seconds, ns_per_update_batched, serial_seconds,
        all_match && learner_scores_match && learner_rank_match ? "true"
                                                                : "false");
    // The learner section: trained-committee p~ both ways (interleaved
    // same-run numbers), the end-to-end Rank comparison per thread count,
    // and the bank's phase counters.
    std::fprintf(
        out,
        "  \"learner\": {\n"
        "    \"trained_attrs\": %zu,\n"
        "    \"confirm_probability_ns_per_update\": %.1f,\n"
        "    \"confirm_probability_ns_batched\": %.1f,\n"
        "    \"batched_speedup\": %.3f,\n"
        "    \"probabilities_match\": %s,\n"
        "    \"encode_seconds\": %.6f,\n"
        "    \"tree_walk_seconds\": %.6f,\n"
        "    \"inferences\": %llu,\n"
        "    \"rank\": [\n",
        trained_attrs, ns_confirm_per_update, ns_confirm_batched,
        learner_batched_speedup, learner_scores_match ? "true" : "false",
        bank_perf.Seconds(PerfPhase::kLearnerEncode),
        bank_perf.Seconds(PerfPhase::kLearnerTreeWalk),
        static_cast<unsigned long long>(
            bank_perf.Count(PerfPhase::kLearnerTreeWalk)));
    for (std::size_t i = 0; i < learner_ranks.size(); ++i) {
      const LearnerRank& lr = learner_ranks[i];
      std::fprintf(out,
                   "      {\"threads\": %zu, \"batched_seconds\": %.6f, "
                   "\"per_update_seconds\": %.6f, \"scores_match\": %s, "
                   "\"order_match\": %s}%s\n",
                   lr.threads, lr.batched_seconds, lr.per_update_seconds,
                   lr.scores_match ? "true" : "false",
                   lr.order_match ? "true" : "false",
                   i + 1 < learner_ranks.size() ? "," : "");
    }
    std::fprintf(out, "    ]\n  },\n");
    std::fprintf(out, "  \"group_size_buckets\": [\n");
    bool first_bucket = true;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      if (bucket_groups[b] == 0) continue;
      const double n = static_cast<double>(bucket_updates[b]);
      std::fprintf(out,
                   "%s    {\"sizes\": \"%s\", \"groups\": %zu, "
                   "\"updates\": %zu, \"batched_ns\": %.1f}",
                   first_bucket ? "" : ",\n", bucket_bounds[b].label,
                   bucket_groups[b], bucket_updates[b],
                   batched_bucket_seconds[b] / n * 1e9);
      first_bucket = false;
    }
    std::fprintf(out, "\n  ],\n  \"group_size_histogram\": [");
    bool first_size = true;
    for (const auto& [size, count] : size_histogram) {
      std::fprintf(out, "%s{\"size\": %zu, \"groups\": %zu}",
                   first_size ? "" : ", ", size, count);
      first_size = false;
    }
    std::fprintf(out, "]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", hotpath_path.c_str());
  } else {
    std::printf("could not write %s\n", hotpath_path.c_str());
  }
  if (!(all_match && learner_scores_match && learner_rank_match)) {
    return 2;
  }
  // The perf gates: batched learner inference may not lose to the
  // per-update path at this workload's scale.
  if (trained_attrs > 0 && batched_prob_seconds > per_update_prob_seconds) {
    std::fprintf(stderr,
                 "FAIL: batched learner inference slower than per-update "
                 "(%.0fns vs %.0fns per update)\n",
                 ns_confirm_batched, ns_confirm_per_update);
    return 3;
  }
  // End-to-end the learner is one phase of Rank, so allow 2% timer
  // jitter before calling a loss a regression.
  if (!learner_ranks.empty() &&
      learner_ranks.front().batched_seconds >
          learner_ranks.front().per_update_seconds * 1.02) {
    std::fprintf(stderr,
                 "FAIL: batched-inference Rank slower than per-update "
                 "(%.4fs vs %.4fs serial)\n",
                 learner_ranks.front().batched_seconds,
                 learner_ranks.front().per_update_seconds);
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace gdr

int main(int argc, char** argv) { return gdr::RunBench(argc, argv); }
