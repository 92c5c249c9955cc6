#ifndef LOOPBENCH_BENCH_H_
#define LOOPBENCH_BENCH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace.h"

namespace loopbench {

// The kinds of operation the accounting line reports. "open" is a session
// set-up (Resolve + Start in process, SessionManager::Open as a service);
// "rehydrate" is a service call that found its session evicted; "restore"
// is the traced run's GdrSession::Restore of a spill file.
enum class Op { kOpen, kNext, kSubmit, kAppend, kEvict, kRehydrate, kRestore };
inline constexpr std::array<const char*, 7> kOpNames = {
    "open", "next", "submit", "append", "evict", "rehydrate", "restore"};

struct OpCounts {
  std::array<std::size_t, kOpNames.size()> attempted{};
  std::array<std::size_t, kOpNames.size()> failed{};

  // Records one attempt; returns `ok` so call sites can branch on it.
  bool Count(Op op, bool ok) {
    ++attempted[static_cast<std::size_t>(op)];
    if (!ok) ++failed[static_cast<std::size_t>(op)];
    return ok;
  }
};

// Everything one invocation shares: arguments, the tracer, the operation
// accounting, failed correctness checks and the metrics reported at exit.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::filesystem::path work_dir;  // scratch files, inside the checkout
  Tracer tracer{false};
  OpCounts ops;
  std::vector<std::string> check_failures;
  std::map<std::string, double> metrics;

  bool traced() const { return tracer.enabled(); }
  void Fail(std::string what) { check_failures.push_back(std::move(what)); }
  void Report(const std::string& name, double value) { metrics[name] = value; }
};

// Times one program call. In the traced run the call is also a span named
// `span`; the elapsed seconds are written to `*seconds` either way.
template <typename F>
auto TimeCall(RunContext& ctx, std::string_view span, std::uint32_t session,
              double* seconds, F&& call) {
  ScopedSpan scoped(&ctx.tracer, span, session);
  const std::int64_t start = NowNs();
  auto result = call();
  *seconds = static_cast<double>(NowNs() - start) * 1e-9;
  return result;
}

// Seconds since `start_ns`.
inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Whether a run that started at `start_ns` and has done `passes` whole
// passes starts another: always a first one, then only while half a pass
// still fits, so run lengths centre on `seconds` instead of overshooting
// by up to a pass.
inline bool AnotherPass(std::int64_t start_ns, double seconds,
                        std::uint32_t passes) {
  if (passes == 0) return true;
  const double elapsed = SecondsSince(start_ns);
  return elapsed + 0.5 * elapsed / passes < seconds;
}

// Per-session in-process workloads: gdr-learn, nolearn-stream.
void RunInProcess(RunContext& ctx);
// The SessionManager workload: service-spill.
void RunService(RunContext& ctx);

}  // namespace loopbench

#endif  // LOOPBENCH_BENCH_H_
