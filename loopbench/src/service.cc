// service-spill: many label-budgeted GDR sessions behind one
// SessionManager whose memory budget holds only a few of them, so the
// client's skewed session order keeps evicting sessions to spill files and
// rehydrating them (CSV load + index build + event replay) on the next
// touch. One client thread, closed loop: each step answers a session's
// outstanding batch and pulls its next one.
//
// Each session runs over its own seeded sample of the default dataset2
// population (census, rules discovered on the population), exported to
// CSV at set-up and opened as a csv: spec; the last rows of every sample
// are held back and appended during the session.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "instances.h"
#include "probes.h"
#include "core/session.h"
#include "server/session_manager.h"
#include "sim/oracle.h"
#include "stats.h"
#include "util/fileio.h"
#include "util/rng.h"
#include "workload/registry.h"

namespace loopbench {
namespace {

namespace srv = gdr::server;

constexpr std::size_t kRecords = 1500;       // rows per sample
constexpr std::size_t kHeldBack = 60;        // appended as kAppendChunks
constexpr std::size_t kAppendChunks = 3;     // chunks, at rounds 2, 5, 8
constexpr std::size_t kSessions = 24;        // session i runs sample i
constexpr std::size_t kLabelBudget = 80;
constexpr std::size_t kResidentSessions = 12;  // what the budget holds
constexpr std::size_t kControls = 2;          // never-evicted re-drives
constexpr std::size_t kEvictEvery = 25;       // steps per forced eviction
constexpr std::uint64_t kScheduleSeed = 7919;

// One session's input sample plus what the client keeps beside it.
struct Sample {
  std::unique_ptr<Instance> data;
  std::unique_ptr<gdr::Dataset> loaded;  // data->spec, resolved once
  std::unique_ptr<gdr::Table> view;  // the oracle's view of a suggestion
  std::unique_ptr<gdr::UserOracle> oracle;
};

srv::OpenConfig ConfigOf(const Sample& instance, std::uint64_t seed) {
  srv::OpenConfig config;
  config.workload_spec = instance.data->spec;
  config.strategy = "GDR";
  config.ns = 5;
  config.feedback_budget = kLabelBudget;
  config.seed = seed;
  return config;
}

// The GdrOptions SessionManager derives from ConfigOf(), for the traced
// run's standalone Restore of a spill file.
gdr::GdrOptions OptionsOf(const srv::OpenConfig& config) {
  gdr::GdrOptions options;
  options.strategy = gdr::Strategy::kGdr;
  options.ns = config.ns;
  options.feedback_budget = config.feedback_budget;
  options.seed = config.seed;
  options.max_outer_iterations = config.max_outer_iterations;
  options.num_threads = 1;
  return options;
}

// One client-side session: its key, its outstanding batch and its
// deterministic progress. The answers and appends depend only on what the
// session shows, so a control session driven by the same logic receives
// the same calls.
struct Client {
  srv::SessionKey key;
  std::size_t instance = 0;
  srv::OpenConfig config;
  std::vector<srv::WireSuggestion> outstanding;
  std::size_t rounds = 0;
  std::size_t appends = 0;
  std::size_t appended_rows = 0;
  std::size_t labels = 0;
  // Timed calls that found the session evicted after it had logged
  // events, so its rehydration replayed them.
  std::size_t replayed_rehydrations = 0;
  bool done = false;
  bool failed = false;
};

// round_ms pools every round for the description on standard error; the
// reported percentiles are each pass's, medianed over passes.
struct Samples {
  std::vector<double> setup_s, machine_s, round_ms, labels, f1;
  std::vector<double> round_p50, round_p95;
  LayerSamples layers;
};

class ServiceRun {
 public:
  ServiceRun(RunContext& ctx, std::vector<Sample>& instances,
             std::size_t session_bytes)
      : ctx_(ctx),
        instances_(instances),
        session_bytes_(session_bytes),
        budget_(kResidentSessions * session_bytes) {}

  // One pass: open every session, drive all to done in the seeded skewed
  // order, check, re-drive controls, close.
  void Pass(std::uint32_t pass, Samples& s) {
    const std::filesystem::path spill = ctx_.work_dir / "spill";
    std::error_code ec;
    std::filesystem::remove_all(spill, ec);
    srv::SessionManagerOptions options;
    options.spill_dir = spill.string();
    options.memory_budget_bytes = budget_;
    options.num_threads = 1;
    srv::SessionManager manager(options);
    spill_dir_ = spill;
    machine_ = 0;
    pass_rounds_.clear();

    std::vector<Client> clients(kSessions);
    double setup = 0;
    std::size_t oldest = 0;  // least recently opened session still resident
    for (std::size_t i = 0; i < kSessions; ++i) {
      Client& c = clients[i];
      c.key = {"t" + std::to_string(i % 3), "s" + std::to_string(i)};
      c.instance = i;
      c.config = ConfigOf(instances_[c.instance], ctx_.seed * 1000 + i);
      // Make room first, so no Open spills a session inside setup_s: the
      // victims are the ones the manager itself would pick (least recently
      // touched), evicted by explicit calls that count as machine time.
      while (oldest < i &&
             manager.Stats().resident_bytes + session_bytes_ > budget_) {
        MakeRoom(manager, clients[oldest++], pass, s);
      }
      const std::size_t evictions = manager.Stats().evictions;
      double secs = 0;
      auto opened = TimeCall(ctx_, "server.open", pass, &secs,
                             [&] { return manager.Open(c.key, c.config); });
      setup += secs;
      if (!ctx_.ops.Count(Op::kOpen, opened.ok())) {
        std::fprintf(stderr, "open %s: %s\n", c.key.session.c_str(),
                     opened.status().ToString().c_str());
        c.failed = c.done = true;
      } else if (manager.Stats().evictions != evictions) {
        ctx_.Fail("service-spill: open of " + c.key.session +
                  " spilled a session inside setup_s");
      }
    }

    // The skewed order: session weights 1/(1+rank)^2 over a shuffled
    // ranking. The schedule is part of the workload, not of its data: its
    // RNG is seeded with a constant, so every seed and every pass replays
    // the same traffic pattern over its own samples. (Seeded per run, the
    // pattern alone moved the rehydration count by 30% between seeds.)
    gdr::Rng rng(kScheduleSeed);
    std::vector<std::size_t> rank(kSessions);
    std::iota(rank.begin(), rank.end(), 0);
    for (std::size_t i = kSessions; i > 1; --i) {
      std::swap(rank[i - 1], rank[rng.NextBounded(i)]);
    }
    std::vector<double> weight(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      const double r = 1.0 + static_cast<double>(rank[i]);
      weight[i] = clients[i].done ? 0.0 : 1.0 / (r * r);
    }
    auto active = static_cast<std::size_t>(
        std::count_if(clients.begin(), clients.end(),
                      [](const Client& c) { return !c.done; }));
    for (std::size_t step = 1; active > 0; ++step) {
      const std::size_t i = rng.NextWeighted(weight);
      if (step % kEvictEvery == 0) {
        ForceEvict(manager, clients[rng.NextBounded(kSessions)], pass, s);
      }
      Step(manager, clients[i], pass, /*timed=*/true, s);
      if (clients[i].done) {
        weight[i] = 0.0;
        --active;
      }
    }

    // Checks, controls, teardown: none of it timed.
    RepairQuality total;
    std::size_t labels = 0;
    for (Client& c : clients) {
      if (c.failed) continue;
      const Grid final_grid = Dump(manager, c);
      CheckSession(c, final_grid, pass, &total);
      labels += c.labels;
    }
    // Controls are drawn from the sessions that a timed call rehydrated
    // with logged events to replay, so the comparison covers a replay.
    std::vector<std::size_t> replayed;
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (!clients[i].failed && clients[i].replayed_rehydrations > 0) {
        replayed.push_back(i);
      }
    }
    if (replayed.size() < kControls) {
      ctx_.Fail("service-spill pass " + std::to_string(pass) + ": only " +
                std::to_string(replayed.size()) +
                " sessions were rehydrated with events to replay");
    } else {
      const std::size_t first = ctx_.seed * 13 % replayed.size();
      for (std::size_t k = 0; k < kControls; ++k) {
        const std::size_t pick =
            replayed[(first + k * replayed.size() / kControls) %
                     replayed.size()];
        Control(clients[pick], manager, pass);
      }
    }
    for (const Client& c : clients) (void)manager.Close(c.key);

    if (std::any_of(clients.begin(), clients.end(),
                    [](const Client& c) { return c.failed; })) {
      return;  // a partial pass is not comparable
    }
    s.setup_s.push_back(setup);
    s.machine_s.push_back(machine_);
    s.round_p50.push_back(Median(pass_rounds_));
    s.round_p95.push_back(TailOrZero(pass_rounds_, 950));
    s.round_ms.insert(s.round_ms.end(), pass_rounds_.begin(),
                      pass_rounds_.end());
    s.labels.push_back(static_cast<double>(labels));
    s.f1.push_back(total.f1());
  }

 private:
  // One service call on `c`'s session, timed into machine time, with
  // rehydration detected from the manager's counter. Control re-drives
  // pass no samples.
  template <typename F>
  auto Call(srv::SessionManager& manager, Client& c, std::string_view span,
            std::uint32_t pass, Samples* s, double* secs, F&& call) {
    if (s == nullptr) return call();  // control re-drive: not measured
    const std::size_t before = manager.Stats().rehydrations;
    auto result = TimeCall(ctx_, span, pass, secs, call);
    machine_ += *secs;
    ++s->layers.touches;
    if (manager.Stats().rehydrations > before) {
      ++s->layers.rehydrations;
      s->layers.rehydrate_ms.push_back(*secs * 1e3);
      ctx_.ops.Count(Op::kRehydrate, result.ok());
      if (c.rounds > 0) ++c.replayed_rehydrations;  // a pull was logged
    }
    return result;
  }

  // Answers the outstanding batch, appends when due, pulls the next batch.
  // `timed` is false for control re-drives, which feed no samples.
  void Step(srv::SessionManager& manager, Client& c, std::uint32_t pass,
            bool timed, Samples& s) {
    Samples* sink = timed ? &s : nullptr;
    Sample& inst = instances_[c.instance];
    double round = 0;
    for (const srv::WireSuggestion& w : c.outstanding) {
      const gdr::AttrId attr = inst.view->schema().FindAttr(w.attr);
      inst.view->Set(w.row, attr, w.current_value);
      const gdr::Update update{w.row, attr,
                               inst.view->InternValue(attr, w.suggested_value),
                               0.0};
      const gdr::Feedback answer =
          inst.oracle->GetFeedback(*inst.view, update);
      double secs = 0;
      auto result = Call(manager, c, "server.feedback", pass, sink, &secs, [&] {
        return manager.Feedback(c.key, w.update_id, answer, std::nullopt);
      });
      if (!Counted(Op::kSubmit, result.ok(), timed, c)) return;
      round += secs;
      if (timed && ctx_.traced()) s.layers.submit_us.push_back(secs * 1e6);
      if (result->outcome == "applied") ++c.labels;
    }
    c.outstanding.clear();
    static constexpr std::size_t kAppendAt[kAppendChunks] = {2, 5, 8};
    if (c.appends < kAppendChunks &&
        (c.rounds >= kAppendAt[c.appends] || c.done)) {
      double secs = 0;
      const auto& chunk = inst.data->chunks[c.appends];
      auto result = Call(manager, c, "server.append", pass, sink, &secs,
                         [&] { return manager.Append(c.key, chunk); });
      if (!Counted(Op::kAppend, result.ok(), timed, c)) return;
      ++c.appends;
      c.appended_rows += chunk.size();
      if (timed) s.layers.append_ms.push_back(secs * 1e3);
    }
    double secs = 0;
    auto batch = Call(manager, c, "server.next", pass, sink, &secs,
                      [&] { return manager.Next(c.key); });
    if (!Counted(Op::kNext, batch.ok(), timed, c)) return;
    round += secs;
    ++c.rounds;
    if (timed) {
      pass_rounds_.push_back(round * 1e3);
      if (ctx_.traced()) s.layers.next_ms.push_back(secs * 1e3);
    }
    c.outstanding = std::move(batch->suggestions);
    c.done = c.outstanding.empty() && c.appends == kAppendChunks;
  }

  // Counts a measured call; any failure abandons the session.
  bool Counted(Op op, bool ok, bool timed, Client& c) {
    if (timed) ctx_.ops.Count(op, ok);
    if (!ok) {
      c.failed = c.done = true;
      if (!timed) ctx_.Fail("control re-drive of " + c.key.session + " failed");
    }
    return ok;
  }

  // An eviction made at open time, before the budget would force one.
  void MakeRoom(srv::SessionManager& manager, Client& c, std::uint32_t pass,
                Samples& s) {
    if (c.failed) return;
    double secs = 0;
    auto bytes = Call(manager, c, "server.evict", pass, &s, &secs,
                      [&] { return manager.Evict(c.key); });
    ctx_.ops.Count(Op::kEvict, bytes.ok());
  }

  void ForceEvict(srv::SessionManager& manager, Client& c,
                  std::uint32_t pass, Samples& s) {
    if (c.failed) return;
    double secs = 0;
    auto bytes = Call(manager, c, "server.evict", pass, &s, &secs,
                      [&] { return manager.Evict(c.key); });
    if (!ctx_.ops.Count(Op::kEvict, bytes.ok()) || !ctx_.traced() ||
        *bytes == 0) {
      return;  // untraced, or already evicted: no new spill file to read
    }
    s.layers.evict_ms.push_back(secs * 1e3);
    s.layers.spill_kb.push_back(static_cast<double>(*bytes) / 1024.0);
    Replay(c, pass, s);
  }

  // Traced run: GdrSession::Restore of the spill file just written, on a
  // fresh copy of the instance's table.
  void Replay(const Client& c, std::uint32_t pass, Samples& s) {
    const std::string path =
        (spill_dir_ / (c.key.tenant + "__" + c.key.session + ".snapshot"))
            .string();
    gdr::Result<std::string> text = gdr::ReadFileToString(path);
    if (!text.ok()) {
      ctx_.Fail("spill file " + path + ": " + text.status().ToString());
      return;
    }
    // A spill file is a "workload <spec>" line, then the snapshot.
    const std::size_t eol = text->find('\n');
    const std::string_view body = std::string_view(*text).substr(
        eol == std::string::npos ? text->size() : eol + 1);
    gdr::Result<gdr::SessionSnapshot> snapshot =
        gdr::SessionSnapshot::Deserialize(body);
    if (!snapshot.ok()) {
      ctx_.Fail("spill file " + path + ": " + snapshot.status().ToString());
      return;
    }
    const Sample& inst = instances_[c.instance];
    gdr::Table table = inst.loaded->dirty;
    gdr::GdrSession session(&table, &inst.loaded->rules, OptionsOf(c.config));
    double secs = 0;
    const gdr::Status restored =
        TimeCall(ctx_, "core.restore", pass, &secs,
                 [&] { return session.Restore(*snapshot); });
    if (!ctx_.ops.Count(Op::kRestore, restored.ok())) return;
    s.layers.replay_s += secs;
    s.layers.replayed_events += static_cast<double>(snapshot->events.size());
    s.layers.replay_events.push_back(
        static_cast<double>(snapshot->events.size()));
  }

  Grid Dump(srv::SessionManager& manager, const Client& c) {
    Grid grid;
    grid.attrs = instances_[c.instance].data->sample.dirty.num_attrs();
    gdr::Result<std::vector<std::string>> cells = manager.Dump(c.key);
    if (!cells.ok()) {
      ctx_.Fail("dump " + c.key.session + ": " + cells.status().ToString());
    } else {
      grid.cells = std::move(*cells);
    }
    return grid;
  }

  void CheckSession(const Client& c, const Grid& final_grid,
                    std::uint32_t pass, RepairQuality* total) {
    const Sample& inst = instances_[c.instance];
    const std::size_t rows = inst.data->initial_rows + c.appended_rows;
    const Grid dirty = ToGrid(inst.data->sample.dirty, rows);
    const Grid clean = ToGrid(inst.data->sample.clean, rows);
    const std::string where = "service-spill pass " + std::to_string(pass) +
                              " " + c.key.session + ": ";
    std::string error;
    const RepairQuality q = CompareCells(dirty, final_grid, clean, &error);
    if (!error.empty()) ctx_.Fail(where + error);
    const std::string rows_error =
        CheckRowsAndDomain(final_grid, dirty, clean, inst.data->sample.rules);
    if (!rows_error.empty()) ctx_.Fail(where + rows_error);
    if (c.labels > kLabelBudget) {
      ctx_.Fail(where + std::to_string(c.labels) + " labels over a budget of " +
                std::to_string(kLabelBudget));
    }
    total->changed += q.changed;
    total->correct_changes += q.correct_changes;
    total->initially_wrong += q.initially_wrong;
  }

  // Re-drives `original` alone in a manager that never evicts; its final
  // table must be bit-identical to the evicted-and-rehydrated session's.
  void Control(const Client& original, srv::SessionManager& manager,
               std::uint32_t pass) {
    const std::filesystem::path spill = ctx_.work_dir / "control";
    srv::SessionManagerOptions options;
    options.spill_dir = spill.string();
    options.num_threads = 1;
    srv::SessionManager control(options);
    Client c;
    c.key = original.key;
    c.instance = original.instance;
    c.config = original.config;
    Samples unused;
    if (!control.Open(c.key, c.config).ok()) {
      ctx_.Fail("control open of " + c.key.session + " failed");
      return;
    }
    while (!c.done) Step(control, c, pass, /*timed=*/false, unused);
    if (c.failed) return;
    const std::string mismatch =
        CheckIdentical(Dump(manager, original), Dump(control, c));
    if (!mismatch.empty()) {
      ctx_.Fail("service-spill pass " + std::to_string(pass) + " " +
                c.key.session + ": " + mismatch);
    }
    (void)control.Close(c.key);
  }

  RunContext& ctx_;
  std::vector<Sample>& instances_;
  std::size_t session_bytes_;
  std::size_t budget_;
  std::filesystem::path spill_dir_;
  double machine_ = 0;
  std::vector<double> pass_rounds_;
};

// Samples and exports the instances; resolves each csv spec back for the
// traced run's standalone restores.
bool Prepare(RunContext& ctx, std::vector<Sample>* samples) {
  gdr::Result<const gdr::Dataset*> population = Population("dataset2");
  if (!population.ok()) {
    std::fprintf(stderr, "dataset2: %s\n",
                 population.status().ToString().c_str());
    return false;
  }
  for (std::size_t j = 0; j < kSessions; ++j) {
    Sample& inst = samples->emplace_back();
    gdr::Result<std::unique_ptr<Instance>> data = MakeInstance(
        **population, ctx.seed * kSessions + j, kRecords, kHeldBack,
        kHeldBack / kAppendChunks,
        ctx.work_dir / ("instance" + std::to_string(j)));
    if (!data.ok()) {
      std::fprintf(stderr, "instance %zu: %s\n", j,
                   data.status().ToString().c_str());
      return false;
    }
    inst.data = std::move(*data);
    gdr::Result<gdr::Dataset> loaded =
        gdr::WorkloadRegistry::Global().Resolve(inst.data->spec);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s: %s\n", inst.data->spec.c_str(),
                   loaded.status().ToString().c_str());
      return false;
    }
    inst.loaded = std::make_unique<gdr::Dataset>(std::move(*loaded));
    inst.view = std::make_unique<gdr::Table>(inst.data->sample.dirty);
    inst.oracle = std::make_unique<gdr::UserOracle>(&inst.data->sample.clean);
  }
  return true;
}

// Bytes the manager charges for one freshly opened session, the largest
// over the instances (0 when one cannot be opened): the budget is a
// multiple of it. Sessions are opened one at a time, so the probe never
// holds more than one.
std::size_t SessionBytes(RunContext& ctx, std::vector<Sample>& instances) {
  srv::SessionManagerOptions options;
  options.spill_dir = (ctx.work_dir / "probe").string();
  srv::SessionManager probe(options);
  std::size_t largest = 0;
  for (std::size_t j = 0; j < instances.size(); ++j) {
    const srv::SessionKey key{"probe", "p" + std::to_string(j)};
    if (!probe.Open(key, ConfigOf(instances[j], 0)).ok()) return 0;
    largest = std::max(largest, probe.Stats().resident_bytes);
    if (!probe.Close(key).ok()) return 0;
  }
  return largest;
}

}  // namespace

void RunService(RunContext& ctx) {
  std::vector<Sample> instances;
  instances.reserve(kSessions);
  if (!Prepare(ctx, &instances)) {
    ctx.Fail("service-spill: could not prepare the instances");
    return;
  }
  const std::size_t session_bytes = SessionBytes(ctx, instances);
  if (session_bytes == 0) {
    ctx.Fail("service-spill: cannot size the memory budget");
    return;
  }
  ServiceRun run(ctx, instances, session_bytes);
  Samples s;
  const std::int64_t start = NowNs();
  std::uint32_t pass = 0;
  while (AnotherPass(start, ctx.seconds, pass)) {
    if (ctx.traced()) {
      // Per-pass layer probes of the set-up path: csv resolve, index build.
      for (const Sample& inst : instances) {
        double secs = 0;
        auto resolved = TimeCall(ctx, "workload.resolve", pass, &secs, [&] {
          return gdr::WorkloadRegistry::Global().Resolve(inst.data->spec);
        });
        if (!resolved.ok()) ctx.Fail("resolve " + inst.data->spec + " failed");
        s.layers.resolve_ms.push_back(secs * 1e3);
        ProbeSetupLayers(ctx, pass, inst.loaded->dirty, inst.loaded->rules,
                         inst.data->chunks, &s.layers);
      }
    }
    run.Pass(pass, s);
    ++pass;
  }
  if (s.machine_s.empty()) {
    ctx.Fail("service-spill: no pass completed");
    return;
  }
  for (std::size_t i = 1; i < s.labels.size(); ++i) {
    if (s.labels[i] != s.labels[0] || s.f1[i] != s.f1[0]) {
      ctx.Fail("service-spill: pass " + std::to_string(i) +
               " differs from pass 0 in user_labels or repair_f1");
    }
  }
  std::fprintf(stderr,
               "service-spill: %zu passes, %.0f rehydrations of %.0f "
               "touches, budget %zu bytes\n",
               s.machine_s.size(), s.layers.rehydrations, s.layers.touches,
               kResidentSessions * session_bytes);
  PrintPerPass("machine_s", s.machine_s);
  PrintPerPass("round_ms.p95", s.round_p95);
  Describe("round_ms", s.round_ms);
  Describe("rehydrate_ms", s.layers.rehydrate_ms);
  Describe("append_ms", s.layers.append_ms);

  ctx.Report("setup_s", Median(s.setup_s));
  ctx.Report("machine_s", Median(s.machine_s));
  ctx.Report("round_ms.p50", Median(s.round_p50));
  ctx.Report("round_ms.p95", Median(s.round_p95));
  ctx.Report("user_labels", s.labels[0]);
  ctx.Report("repair_f1", s.f1[0]);
  // No mirror learner or live-index probes behind the service boundary;
  // ml.retrains stays 0 here.
  s.layers.Report(ctx, 0, Median(s.machine_s));
}

}  // namespace loopbench
