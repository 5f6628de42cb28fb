// Plan persistence — serialized BlockSolver preprocessing.
//
// Table 5 of the paper prices recursive-block preprocessing at many
// single-solve equivalents; in a service that solves the same sparsity
// pattern millions of times (a factorization reused across timesteps or
// requests), that analysis must be paid once, not per BlockSolver. A
// PlanArtifact holds what preprocessing *decided* — permutation, recursive
// BlockPlan (triangles, squares, step order, waves, colours), each block's
// kernel kind, the triangles' level sets, the level-merge width and the
// tuning and shard records — plus one copy of the permuted matrix. Every
// kernel structure (CSR/CSC/DCSR block arrays, diagonals, in-degrees, merged
// schedules) is derived from that matrix on load, never stored. The
// artifact can be
//
//   * saved to / loaded from a versioned binary file (save_artifact /
//     load_artifact below, format described in DESIGN.md §10),
//   * shared immutably between concurrent solvers through a PlanCache
//     (persist/plan_cache.hpp),
//   * rehydrated into a BlockSolver with zero level analysis
//     (BlockSolver::create_from_artifact), bitwise-identical to the cold
//     build it was captured from.
//
// The artifact is keyed by the canonical structure hash of the *original*
// (unpermuted) matrix plus a fingerprint of the plan-affecting options, so a
// stale or mismatched artifact is rejected with a typed Status instead of
// producing a silently wrong solve.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/levels.hpp"
#include "common/status.hpp"
#include "core/adaptive.hpp"
#include "core/plan.hpp"
#include "sparse/formats.hpp"
#include "spmv/kernels.hpp"
#include "sptrsv/levelset.hpp"

namespace blocktri {

/// The one on-disk format version this build reads and writes. Version 6
/// has version 5's layout (decisions plus one permuted matrix) and keys it
/// by the word-wise structure_hash; versions 1-4 persisted every derived
/// kernel structure and version 5 carries the retired byte-serial hash, so
/// neither is read (they fail with kVersionMismatch — recapture the plan
/// from the matrix).
inline constexpr std::uint32_t kArtifactFormatVersion = 6;

/// What preprocessing decided for one triangular leaf (rows
/// plan.tri_bounds[t] .. plan.tri_bounds[t + 1]). `levels` is kept for the
/// level-scheduled kinds (kLevelSet, kCusparseLike) so rehydration runs no
/// level analysis; it is empty for the other kinds.
struct TriBlockArtifact {
  TriKernelKind kind = TriKernelKind::kSyncFree;
  index_t nlevels = 0;
  LevelSets levels;
};

/// What preprocessing decided for one square (SpMV) block plan.squares[q].
struct SquareBlockArtifact {
  SpmvKernelKind kind = SpmvKernelKind::kScalarCsr;
  double empty_ratio = 0.0;
};

/// The complete, immutable result of BlockSolver preprocessing.
template <class T>
struct PlanArtifact {
  /// structure_hash() of the original (unpermuted) input matrix — a loaded
  /// plan is only accepted for a matrix with this exact pattern.
  std::uint64_t structure = 0;
  /// Fingerprint of the plan-affecting Options fields (scheme, planner,
  /// adaptive/forced kernels, thresholds, verify.enabled) the artifact was
  /// captured under; create_from_artifact requires an exact match.
  std::uint64_t options = 0;

  BlockPlan plan;
  std::vector<std::vector<ExecStep>> waves;  // compute_step_waves output
  offset_t nnz = 0;  // of the whole matrix, also in shard slices

  /// The permuted matrix, the only numeric payload. A whole artifact holds
  /// all n rows; a shard slice holds rows [shard_row_begin, shard_row_end)
  /// (row 0 of `stored` is permuted row shard_row_begin, columns global).
  Csr<T> stored;

  std::int64_t build_ops = 0;  // preprocessing cost counters (Table 5)
  std::int64_t build_bytes = 0;

  /// Autotuning record (optional section, written for tuned plans only;
  /// absent means these defaults). It carries what the per-block kinds
  /// cannot: that the plan came from the tuner, the level-merge width the
  /// level-set blocks are built with, and the search's oracle verdict.
  bool tuned = false;
  offset_t merge_width = kLevelMergeMaxWidth;
  bool tune_fell_back = false;
  std::uint64_t tune_device = 0;     // device_fingerprint of the tuning GPU
  double oracle_default_ns = 0.0;    // exact-sim time of the default plan
  double oracle_tuned_ns = 0.0;      // exact-sim time of the captured plan

  /// Shard-slice record (optional section, shard slices only). A slice
  /// keeps the *global* plan, waves and decisions so a worker can derive
  /// its local schedule and halo dependencies; only `stored` is cut down to
  /// the shard's rows, and which blocks the worker builds follows from that
  /// row range. shard_bounds holds all shard_count + 1 cut rows (values of
  /// plan.tri_bounds), identical across the slices of one cut.
  bool shard = false;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 0;
  index_t shard_row_begin = 0;
  index_t shard_row_end = 0;
  std::vector<index_t> shard_bounds;

  // The HBMC color record (plan.color_bounds / plan.hbmc_block_rows) rides
  // inside the BlockPlan and gets an optional CRC'd section of its own.

  std::vector<TriBlockArtifact> tri;          // one per plan triangle
  std::vector<SquareBlockArtifact> squares;   // one per plan square
};

/// Heap footprint of an artifact (all vector payloads + bookkeeping) — the
/// byte measure PlanCache's capacity bound uses.
template <class T>
std::size_t artifact_bytes(const PlanArtifact<T>& art);

/// Serializes `art` to `path` in the versioned binary format: a fixed header
/// (magic, format version, endianness tag, value-type width, structure hash,
/// options fingerprint, n, nnz) followed by CRC32-guarded sections. Returns
/// Ok or a typed Status (kBadFormat for an unopenable/unwritable path).
/// The write is atomic-ish: data goes to "<path>.tmp" and is renamed into
/// place only after a successful flush, so readers never observe a torn file.
template <class T>
Status save_artifact(const std::string& path, const PlanArtifact<T>& art);

/// TESTING ONLY: arms the next `n` load_artifact calls (process-wide, any
/// thread) to fail with a transient kIoError before touching the file —
/// the fault class BlockSolver::create_from_file's retry-with-backoff loop
/// exists to absorb. pending_io_failures() reads the remaining budget.
namespace persist_testing {
void force_io_failures(int n);
int pending_io_failures();
}  // namespace persist_testing

/// Loads an artifact written by save_artifact. Every defect class maps to a
/// typed Status: wrong magic / endianness / value width → kBadFormat, other
/// format version → kVersionMismatch, file ends early → kTruncated (location
/// = byte offset), section CRC32 disagrees → kChecksumMismatch (location =
/// section's byte offset), the OS reports a read error mid-stream →
/// kIoError (naming the path — distinct from kTruncated: the file may be
/// intact). On any failure *out is left untouched.
template <class T>
Status load_artifact(const std::string& path, PlanArtifact<T>* out);

/// Deep semantic check of a deserialized (or hand-built) artifact, O(nnz +
/// n). Rehydration derives every kernel structure from `stored` and the
/// executors index with plan contents unchecked (permute_vector writes
/// out[new_of_old[i]], kernels read x[col_idx[k]]), so this proves: plan
/// bounds, squares, steps, waves and colours consistent; new_of_old a
/// permutation of [0, n); `stored` a well-formed lower triangle of its rows
/// (sorted in-range columns, trailing non-zero diagonal, nothing above it);
/// every kind in range; a completely-parallel block really diagonal; and
/// every persisted level set a valid schedule of its block (level_item a
/// permutation, level_of matching each row's slot, every strictly-lower
/// in-block entry (i, j) with level_of[j] < level_of[i]). A shard slice's
/// stored rows must be exactly its range of the cut. Returns kBadFormat
/// describing the first violation. load_artifact runs this before handing
/// the artifact out, so a CRC-valid but crafted file is rejected here rather
/// than corrupting memory or the schedule at solve time.
template <class T>
Status validate_artifact(const PlanArtifact<T>& art);

}  // namespace blocktri
