// Span tracer: spans live in memory while the run goes on and are written
// out at the end, as Chrome trace events and as a per-layer table.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

namespace {
const auto kEpoch = std::chrono::steady_clock::now();
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::int64_t Tracer::begin(const char* name, std::int64_t request, int tid,
                           std::int64_t parent) {
  const double t = now_ms() * 1e3;
  std::lock_guard<std::mutex> lk(mu_);
  SpanRecord s;
  s.name = name;
  s.start_us = t;
  s.id = next_++;
  std::vector<std::int64_t>& stack = open_[tid];
  s.parent = parent > 0 ? parent : stack.empty() ? 0 : stack.back();
  s.request = request;
  s.tid = tid;
  stack.push_back(s.id);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::int64_t id) {
  const double t = now_ms() * 1e3;
  std::lock_guard<std::mutex> lk(mu_);
  // Span ids are dense from 1 in creation order.
  SpanRecord& s = spans_[static_cast<std::size_t>(id - 1)];
  s.end_us = t;
  std::vector<std::int64_t>& stack = open_[s.tid];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
}

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld,\"request\":%lld}}",
                  i ? ",\n" : "\n", s.name.c_str(), layer.c_str(), s.start_us,
                  s.end_us - s.start_us, s.tid, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request));
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

std::string Tracer::layer_table() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Child time per parent. Children on the parent's own thread never
  // overlap; concurrent service requests can, so self time is clamped at 0.
  std::vector<double> child_us(spans_.size() + 1, 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent > 0)
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  struct Row {
    std::int64_t count = 0;
    double total_ms = 0.0, self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& s : spans_) {
    Row& r = rows[s.name.substr(0, s.name.find('.'))];
    const double dur = s.end_us - s.start_us;
    ++r.count;
    r.total_ms += dur / 1e3;
    r.self_ms += std::max(0.0, dur - child_us[static_cast<std::size_t>(s.id)]) / 1e3;
  }
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof buf, "# layer      %8s %12s %12s\n", "spans",
                "total_ms", "self_ms");
  os << buf;
  for (const auto& [layer, r] : rows) {
    std::snprintf(buf, sizeof buf, "# %-10s %8lld %12.3f %12.3f\n",
                  layer.c_str(), static_cast<long long>(r.count), r.total_ms,
                  r.self_ms);
    os << buf;
  }
  return os.str();
}

}  // namespace perfbench
