#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int SpanLog::begin(std::string_view name, std::uint64_t trace_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.start = now_s();
  span.parent = open_.empty() ? -1 : open_.back();
  span.trace_id = trace_id;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

double SpanLog::end(int id) {
  if (id < 0) return 0.0;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = now_s();
  // Spans close in LIFO order; tolerate an out-of-order close by dropping
  // everything opened after it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
  return span.end - span.start;
}

void SpanLog::add(std::string_view name, std::uint64_t trace_id, double start,
                  double end) {
  if (!enabled_) return;
  Span span;
  span.name = std::string(name);
  span.start = start;
  span.end = end;
  span.parent = open_.empty() ? -1 : open_.back();
  span.trace_id = trace_id;
  spans_.push_back(std::move(span));
}

void SpanLog::write_json(const std::filesystem::path& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d, \"trace\": \"%016llx\"}%s\n",
                 i, s.name.c_str(), s.start - origin, s.end - origin, s.parent,
                 static_cast<unsigned long long>(s.trace_id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
}

}  // namespace perfbench
