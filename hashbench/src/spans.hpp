// In-memory span log for the traced run, written out as Chrome trace-event
// JSON (chrome://tracing, Perfetto) when the benchmark ends.
//
// A span is one call into a layer, or one client request: its name, the id
// that keys it (the request id, or the sample index of a ladder entry), the
// id of the span that caused it (0 for none), and its start and end.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "kvx/common/types.hpp"

namespace hashbench {

inline kvx::u64 now_ns() {
  return static_cast<kvx::u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a span. `name` must be a string literal (stored by pointer).
  void add(const char* name, kvx::u64 id, kvx::u64 parent, unsigned track,
           kvx::u64 start_ns, kvx::u64 end_ns) {
    if (enabled_) spans_.push_back({name, id, parent, track, start_ns, end_ns});
  }

  [[nodiscard]] kvx::usize size() const noexcept { return spans_.size(); }

  /// Write every span as a complete ("X") trace event. Returns false if the
  /// file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    kvx::u64 base = ~kvx::u64{0};
    for (const Span& s : spans_) base = s.start_ns < base ? s.start_ns : base;
    std::fputs("{\"traceEvents\":[\n", f);
    for (kvx::usize i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}\n",
                   i == 0 ? "" : ",", s.name, s.track,
                   static_cast<double>(s.start_ns - base) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    kvx::u64 id;
    kvx::u64 parent;
    unsigned track;
    kvx::u64 start_ns;
    kvx::u64 end_ns;
  };

  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace hashbench
