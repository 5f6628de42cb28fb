// Synchronisation-free SpTRSV — Algorithm 3 of the paper (Liu et al.,
// Euro-Par'16 / CCPE'17). One kernel for the whole solve: each component is
// assigned a warp which busy-waits on its in-degree counter, computes its x
// entry, then pushes val*x products into the dependent components' left_sum
// accumulators with atomics and decrements their in-degree counters.
//
// Preprocessing is a single parallel pass counting in-degrees (Alg. 3 lines
// 1–5) — the cheapest analysis of the three baselines (Table 5: 2.34 ms).
//
// Cost drivers reproduced by the simulation (and called out in §2.2/§4.2):
//   * dependency chains serialise through the atomic visibility latency,
//   * long columns make a single warp issue many atomics (power-law load
//     imbalance — FullChip, vas_stokes_4M),
//   * spinning warps hold SM residency: components deep in the launch order
//     cannot even start until a slot frees (modelled by slot-holding tasks).
#pragma once

#include <vector>

#include "common/deadline.hpp"
#include "common/thread_pool.hpp"
#include "sparse/formats.hpp"
#include "sptrsv/sim_ctx.hpp"

namespace blocktri {

template <class T>
class SyncFreeSolver {
 public:
  /// Builds the CSC execution structure and the in-degree counts. The input
  /// is the lower triangle in CSR (diagonal last in each row). A pool
  /// parallelises the CSC conversion and in-degree pass; it is not retained.
  explicit SyncFreeSolver(const Csr<T>& lower, ThreadPool* pool = nullptr);

  /// Builds the CSC offset map refresh_values writes through (4 bytes per
  /// strict nonzero), once; later calls do nothing. Solvers that never
  /// refresh never pay for it.
  void prepare_refresh();

  /// Installs new values for the matrix's fixed structure, rewriting the
  /// strict-row and CSC value arrays in place through the CSC offset map
  /// (built here on the first call unless prepare_refresh ran). Row i's
  /// values (diagonal last) are the entries of `src` that end at src_end[i],
  /// as in LevelSetSolver::refresh_values.
  void refresh_values(const T* src, const offset_t* src_end);

  /// Host solve. Serially (simulated or not) each x_i is a row gather over
  /// the strict rows in ascending column order — the same floating-point
  /// operations, in the same order, as Alg. 3's column push into a
  /// zero-filled left_sum, so the two are bitwise equal; the simulator only
  /// charges the push's CSC traffic and atomics. With a pool (and no
  /// simulation) this runs
  /// the CPU analogue of Alg. 3: components are dealt round-robin to threads
  /// (component i to thread i mod nthreads, mirroring the GPU's warp
  /// dispatch), each thread spin-waits on its component's atomic in-degree
  /// counter, solves, then pushes val·x products into the dependents' atomic
  /// left_sum slots and decrements their counters with release ordering.
  /// Accumulation order into left_sum is timing-dependent, so parallel
  /// results match the serial ones to rounding (not bitwise) — the same
  /// caveat the GPU kernel has.
  ///
  /// `scratch` is ignored: no path needs a caller-provided accumulator.
  ///
  /// The busy-wait is *bounded*: every spin loop carries a wall-clock budget
  /// (ctl->spin_timeout_ms(), or kDefaultSpinTimeoutMs for direct calls), so
  /// corrupted or cyclic in-degree counters time out instead of livelocking.
  /// With `ctl` attached, a timeout trips the control with kSpinTimeout and
  /// the caller observes it (x is partial); a deadline/cancel trip likewise
  /// abandons the solve mid-flight. Without `ctl`, a tripped spin budget
  /// self-heals: the block is re-solved on the serial path, which never
  /// consults the in-degree counters — slower, but correct and bounded.
  void solve(const T* b, T* x, const TrsvSim* s = nullptr,
             ThreadPool* pool = nullptr, T* scratch = nullptr,
             const ExecControl* ctl = nullptr) const;

  /// Batched solve of k right-hand sides (column-major panel, leading
  /// dimension `ld`): each column visit streams the CSC structure once and
  /// pushes val·x products for all k columns. Host only. Unlike solve()'s
  /// parallel path, the batched path never races on accumulators: a pool
  /// splits the *columns of the panel* and every chunk runs the serial
  /// ascending-order algorithm on its own left_sum scratch, so the result is
  /// bitwise identical to k independent serial solves at any thread count.
  ///
  /// `scratch` (≥ n·min(kRhsTile, k) elements) plays solve()'s role for the
  /// serial path's accumulator panel; the parallel column-split ignores it
  /// (each chunk needs its own panel and allocates locally).
  void solve_many(const T* b, T* x, index_t k, index_t ld,
                  ThreadPool* pool = nullptr, T* scratch = nullptr,
                  const ExecControl* ctl = nullptr,
                  PanelLayout layout = PanelLayout::kColMajor) const;

  const std::vector<index_t>& in_degree() const { return in_degree_; }

  /// TESTING ONLY: adds `delta` to one row's in-degree counter, simulating
  /// the corrupted dependency metadata the bounded spin-wait defends
  /// against — the parallel path then waits on a count that can never drain.
  /// The serial and batched paths ignore in-degree entirely, so a poisoned
  /// solver still produces correct results on every spin-free rung.
  void poison_in_degree_for_testing(index_t row, index_t delta) {
    in_degree_.at(static_cast<std::size_t>(row)) += delta;
  }

 private:
  Csc<T> csc_;                      // execution format (Alg. 3 is CSC)
  Csr<T> strict_rows_;              // dependency edges; the serial gather
  std::vector<index_t> in_degree_;  // off-diagonal nnz per row
  // Per strict_rows_ entry (i, j): its offset within CSC column j (< n);
  // empty until prepare_refresh.
  std::vector<index_t> csc_off_;
};

}  // namespace blocktri
