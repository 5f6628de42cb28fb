// Shared pieces of the end-to-end benchmark: the run result that becomes the
// final JSON line, the independent correctness oracle, the span tracer and
// the machine description. See perfbench/README.md for what each workload
// measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "blocktri.hpp"

namespace perfbench {

using blocktri::Csr;
using blocktri::index_t;
using blocktri::offset_t;

// ---------------------------------------------------------------------------
// Run result

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict over every checked output,
/// the operation counts and the metrics, printed as the last stdout line.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;

  /// Records a correctness check; a failed one makes the run incorrect and
  /// is reported on stderr (the first few only).
  void check(bool ok, const std::string& what);
  /// Counts one operation; `ok` false counts it as failed.
  void op(bool ok, const std::string& what);
  void put(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  int reported_ = 0;
};

double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of `v` (empty → 0).
double quantile(std::vector<double> v, double q);
double now_ms();

// ---------------------------------------------------------------------------
// Independent correctness oracle (oracle.cpp). Uses only the CSR arrays of
// the original, unpermuted input and its own loops — nothing of the library.

/// ‖b − Lx‖∞ / (‖L‖∞‖x‖∞ + ‖b‖∞) over `lower` as given.
double oracle_residual(const Csr<double>& lower, const double* x,
                       const double* b);
/// 100 · n · eps(double): the acceptance limit for oracle_residual.
double oracle_limit(index_t n);
/// True when `x` solves `lower` x = b within oracle_limit.
bool oracle_accepts(const Csr<double>& lower, const double* x,
                    const double* b);
/// The same pattern with new values: every off-diagonal scaled by a seeded
/// factor in [0.5, 1.5], the diagonal reset to 1 + Σ|off-diagonal| so the
/// system stays dominant. This is how every workload's value refresh makes
/// its next factor.
Csr<double> revalue(const Csr<double>& lower, std::uint64_t seed);
/// The oracle's own test: it accepts a correct solve, rejects the same
/// solve with one entry perturbed, and rejects a solve checked against the
/// values from before a refresh. Records each as a correctness check.
void oracle_self_test(RunResult& res);

// ---------------------------------------------------------------------------
// Spans (trace.cpp). Kept in memory while enabled, written at exit.

struct SpanRecord {
  std::string name;  // "<layer>.<call>"
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = 0;   // 0 = root
  std::int64_t request = 0;  // service request id, 0 = none
  int tid = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }
  /// Opens a span on thread `tid`. Its parent is the innermost open span of
  /// that thread, or `parent` when given (> 0): spans on sender threads name
  /// the span that started them.
  std::int64_t begin(const char* name, std::int64_t request, int tid,
                     std::int64_t parent = 0);
  void end(std::int64_t id);
  /// Chrome trace-event JSON (complete "X" events).
  bool write_chrome(const std::string& path) const;
  /// Per-layer rows: layer, span count, total and self time in ms. Self
  /// time is a span's duration minus what its child spans cover.
  std::string layer_table() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<int, std::vector<std::int64_t>> open_;  // per-thread stacks
  std::int64_t next_ = 1;
};

Tracer& tracer();

/// RAII span around one call into a layer; free when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::int64_t request = 0, int tid = 0,
                std::int64_t parent = 0)
      : id_(tracer().enabled() ? tracer().begin(name, request, tid, parent)
                               : 0) {}
  ~Span() {
    if (id_ != 0) tracer().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int64_t id() const { return id_; }

 private:
  std::int64_t id_;
};

/// Times fn() in milliseconds inside a span named `name`.
template <class Fn>
double timed(const char* name, Fn&& fn) {
  Span s(name);
  const double t0 = now_ms();
  fn();
  return now_ms() - t0;
}

// ---------------------------------------------------------------------------
// Machine description (machine.cpp)

struct MachineInfo {
  long nproc = 0;
  unsigned hardware_concurrency = 0;
  std::string cpu_model;
  std::string simd_path;
  std::string vector_isa;
  std::string compiler;
  std::string flags;
  std::string git_sha;
  std::int64_t llc_bytes = 0;
};

MachineInfo machine_info();
/// Prints the machine block as "# machine ..." lines on stdout.
void print_machine(const MachineInfo& m);
/// Copy bandwidth over two arrays of `bytes` each, best of a few passes.
double stream_copy_gbps(std::size_t bytes);

// ---------------------------------------------------------------------------
// Workloads (workloads.cpp)

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".bench_build/out";
};

/// Runs one workload and fills `res`. Returns false for an unknown name.
bool run_workload(const Args& args, RunResult& res);

}  // namespace perfbench
