// Sharded multi-process solve coordinator (DESIGN.md §15).
//
// ShardCoordinator::create cuts a BlockSolver's plan into P contiguous row
// shards (compute_shard_cuts), writes one .btpa slice per shard,
// maps a shared-memory panel region, and forks P worker processes that
// rehydrate their slices with zero re-analysis. Each solve is an *epoch*:
// the coordinator scatters the permuted right-hand sides into the shared b
// panel, resets the watermarks, bumps the epoch sequence (release), and
// sends every worker a SolveCmd; workers execute their local schedules with
// compute/communication overlap and report over their control pipes; the
// coordinator gathers the shared x panel back. The sharded result is bitwise
// identical to the base solver's solve_many at any shard count.
//
// Failure containment: a worker that dies (waitpid) or stops making progress
// within shard.epoch_timeout_ms turns the epoch into a typed kWorkerLost —
// never a hang. The shared segment is unlinked at creation (workers inherit
// the mapping), so no crash can leak a named segment; dead workers are
// reaped with targeted waitpid and respawned from their persisted slices
// before the next epoch (a respawn re-runs the warm path: zero re-analysis).
// With shard.fallback_inprocess the lost epoch is transparently re-run on
// the base solver in process.
#pragma once

#include <sys/types.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "shard/shm.hpp"

namespace blocktri::shard {

/// Cumulative coordinator telemetry (monotonic; returned by value).
struct CoordinatorStats {
  std::uint64_t epochs = 0;          // solve epochs attempted
  std::uint64_t workers_lost = 0;    // dead or hung workers detected
  std::uint64_t fallbacks = 0;       // epochs re-run on the base solver
  std::uint64_t respawns = 0;        // workers re-forked from their slices
  std::uint64_t halo_ready = 0;      // boundary squares ready in pass 1
  std::uint64_t halo_deferred = 0;   // boundary squares deferred to pass 2
  double wait_ms = 0.0;              // total worker watermark-wait time
  /// Level-set analyses performed by workers across rehydrations and
  /// epochs — the warm-start proof is that this stays 0.
  std::uint64_t worker_level_analyses = 0;
};

template <class T>
class ShardCoordinator {
 public:
  using Options = typename BlockSolver<T>::Options;

  /// Builds the shard pool for `base` (which must stay alive and unchanged
  /// for the coordinator's lifetime — it provides the captured plan and the
  /// in-process fallback). `opt.shard.processes` must be >= 1; the effective
  /// shard count may be lower when the plan has fewer leaves
  /// (shard_count()). Failure leaves *out untouched with every child
  /// process, file and mapping cleaned up.
  static Status create(const BlockSolver<T>& base, const Options& opt,
                       std::unique_ptr<ShardCoordinator<T>>* out);

  /// Shuts the pool down: Shutdown frames (EOF works too), bounded waitpid,
  /// SIGKILL for stragglers, targeted reaps, slice files unlinked.
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Sharded solve of L x = b. Bitwise identical to base.solve(b, x).
  Status solve(const T* b, T* x, const SolveControls& controls = {},
               SolveReport* rep = nullptr);

  /// Sharded batched solve of an n × k column-major panel. Bitwise identical
  /// to base.solve_many(B, X, k). k must be <= max_panel().
  Status solve_many(const T* B, T* X, index_t k,
                    const SolveControls& controls = {},
                    SolveReport* rep = nullptr);

  /// Gather/scatter form: column c read from Bs[c], written to Xs[c] — the
  /// solve service's coalescing front end feeds panels this way.
  Status solve_many(const T* const* Bs, T* const* Xs, index_t k,
                    const SolveControls& controls = {},
                    SolveReport* rep = nullptr);

  index_t n() const { return base_->n(); }
  index_t max_panel() const { return k_max_; }
  /// Effective shard count (may be below shard.processes on shallow plans).
  int shard_count() const { return count_; }
  const std::vector<index_t>& bounds() const { return bounds_; }
  /// The (already unlinked) shared segment name, for leak tests.
  const std::string& shm_name() const { return shm_.name(); }
  /// Worker pids, for fault-injection tests (dead entries are -1).
  std::vector<pid_t> worker_pids() const;
  CoordinatorStats stats() const;

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;  // coordinator end of the control socketpair
    bool alive = false;
  };

  ShardCoordinator() = default;

  /// Forks worker `i` from its slice file and awaits its Hello.
  Status spawn_worker(int i);
  /// Re-forks every dead worker; Ok when the full pool is alive again.
  Status respawn_dead_locked();
  /// Marks `w` dead, reaps it (targeted waitpid), closes its fd.
  void retire_worker_locked(Worker& w, bool kill_first);
  /// One epoch over panels delivered via either contiguous or pointer form.
  Status run_epoch_locked(const T* B, const T* const* Bs, T* X, T* const* Xs,
                          index_t k, const SolveControls& controls,
                          SolveReport* rep);

  const BlockSolver<T>* base_ = nullptr;
  Options opt_;
  typename BlockSolver<T>::Options worker_opt_;
  std::vector<index_t> bounds_;
  int count_ = 0;
  index_t k_max_ = 1;
  SharedRegion<T> shm_;
  std::vector<Worker> workers_;
  std::vector<std::string> slice_paths_;
  std::uint64_t seq_ = 0;
  mutable std::mutex mu_;  // one epoch at a time; stats reads
  CoordinatorStats stats_;
};

}  // namespace blocktri::shard
