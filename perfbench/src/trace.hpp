// Benchmark-side tracing and statistics. Spans are recorded by the
// benchmark around the public calls it makes into each layer (the library
// is not instrumented for this); they stay in memory and are written out
// once, when the run ends.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady_clock).
[[nodiscard]] double now_s();

/// Value at quantile `q` in [0,1] with linear interpolation between the
/// closest ranks (the same rule as numpy's default). NaN when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Append-only span log. A span's parent is the innermost span still open
/// when it began, so nesting follows the benchmark's call structure.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span; returns its id (-1 when the log is disabled).
  int begin(std::string_view name, std::uint64_t trace_id);
  /// Close span `id` and return its duration in seconds.
  double end(int id);
  /// Record a span whose ends were timed elsewhere (e.g. on another
  /// thread), under the innermost open span.
  void add(std::string_view name, std::uint64_t trace_id, double start,
           double end);

  /// Run `fn` inside a span and return the span's duration in seconds.
  /// Disabled logs still time the call, so callers need no branch.
  template <class Fn>
  double timed(std::string_view name, std::uint64_t trace_id, Fn&& fn) {
    if (!enabled_) {
      const double start = now_s();
      fn();
      return now_s() - start;
    }
    const int id = begin(name, trace_id);
    fn();
    return end(id);
  }

  /// One JSON object per span: name, start/end (seconds since the first
  /// span), parent id, trace id.
  void write_json(const std::filesystem::path& path) const;

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    int parent = -1;
    std::uint64_t trace_id = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, std::uint64_t trace_id)
      : log_(log), id_(log.begin(name, trace_id)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Named sample series; per-layer metrics are their medians.
using SampleSet = std::map<std::string, std::vector<double>>;

}  // namespace perfbench
