#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace loopbench {

std::int32_t Tracer::Begin(std::string_view name, std::uint32_t session) {
  if (!enabled_) return -1;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(
      Span{name, NowNs(), 0, open_.empty() ? -1 : open_.back(), session});
  open_.push_back(id);
  return id;
}

void Tracer::End(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  // Spans close in LIFO order (they are scoped); tolerate a mismatch by
  // unwinding to the closed span.
  while (!open_.empty()) {
    const std::int32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

gdr::Status Tracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return gdr::Status::InvalidArgument("cannot write trace file " + path);
  }
  const std::vector<std::int64_t> self = SelfTimes(spans_);
  std::fprintf(out, "id\tparent\tsession\tname\tstart_ns\tend_ns\tself_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu\t%d\t%u\t%.*s\t%lld\t%lld\t%lld\n", i, s.parent,
                 s.session, static_cast<int>(s.name.size()), s.name.data(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  const bool ok = std::fclose(out) == 0;
  return ok ? gdr::Status::OK()
            : gdr::Status::InvalidArgument("cannot close trace file " + path);
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                               s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // end of the covered prefix
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::int64_t> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string, std::int64_t> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[std::string(spans[i].name)] += self[i];
  }
  return by_name;
}

}  // namespace loopbench
