#ifndef LOOPBENCH_TRACE_H_
#define LOOPBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace loopbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One traced layer call, made from the benchmark's own code.
struct Span {
  std::string_view name;  // a string literal; outlives the tracer
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 at the root
  std::uint32_t session = 0;
};

// In-memory span recorder for the traced run. Single-threaded: the
// benchmark drives every session from one client thread, so the open-span
// stack is the causal parent chain. Disabled, it records nothing and
// Begin/End are a branch each.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span; returns its index or -1
  // when tracing is off.
  std::int32_t Begin(std::string_view name, std::uint32_t session);
  void End(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  // Writes one tab-separated line per span: index, parent, session, name,
  // start_ns, end_ns, self_ns.
  gdr::Status WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// Self time of every span: its duration minus the part of its interval
// that its direct children cover (overlapping children counted once,
// children clipped to the parent's interval).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

// Total self time per span name, in nanoseconds.
std::map<std::string, std::int64_t> SelfTimeByName(
    const std::vector<Span>& spans);

// RAII span: Begin at construction, End at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::uint32_t session)
      : tracer_(tracer), id_(tracer->Begin(name, session)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

}  // namespace loopbench

#endif  // LOOPBENCH_TRACE_H_
