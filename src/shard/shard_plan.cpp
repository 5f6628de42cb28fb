#include "shard/shard_plan.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "sparse/triangular.hpp"

namespace blocktri::shard {

template <class T>
std::vector<index_t> compute_shard_cuts(const PlanArtifact<T>& art,
                                        int nshards) {
  const BlockPlan& p = art.plan;
  const auto nleaves = static_cast<std::size_t>(p.num_tri_blocks());
  BLOCKTRI_CHECK_MSG(nshards >= 1, "shard count must be positive");
  BLOCKTRI_CHECK_MSG(!art.shard && art.stored.nrows == p.n,
                     "shard cuts need a whole artifact, not a slice");

  // Per-leaf work weight: the triangle's nnz plus each overlapping square's
  // nnz apportioned by row share. Square row ranges are unions of leaves in
  // every scheme, but the proportional split keeps this correct (and
  // deterministic) even if that ever changes. +1 so empty leaves still
  // advance the prefix — a cut between two all-zero leaves stays strict.
  std::vector<double> weight(nleaves, 1.0);
  for (std::size_t t = 0; t < nleaves; ++t)
    weight[t] += static_cast<double>(
        count_block_nnz(art.stored, p.tri_bounds[t], p.tri_bounds[t + 1],
                        p.tri_bounds[t], p.tri_bounds[t + 1]));
  for (const SquareBlockRef& q : p.squares) {
    const index_t rows = q.r1 - q.r0;
    const offset_t nnz = count_block_nnz(art.stored, q.r0, q.r1, q.c0, q.c1);
    if (rows <= 0 || nnz == 0) continue;
    const double per_row = static_cast<double>(nnz) / rows;
    for (std::size_t t = 0; t < nleaves; ++t) {
      const index_t lo = std::max(p.tri_bounds[t], q.r0);
      const index_t hi = std::min(p.tri_bounds[t + 1], q.r1);
      if (hi > lo) weight[t] += per_row * static_cast<double>(hi - lo);
    }
  }

  // Greedy prefix partition over leaves: advance each cut until the prefix
  // crosses the next 1/P share of the total. Forcing at least one leaf per
  // shard keeps the bounds strictly ascending; running out of leaves simply
  // yields fewer shards.
  std::vector<double> prefix(nleaves + 1, 0.0);
  for (std::size_t t = 0; t < nleaves; ++t)
    prefix[t + 1] = prefix[t] + weight[t];
  const double total = prefix.back();

  std::vector<index_t> bounds;
  bounds.push_back(0);
  std::size_t leaf = 0;
  const auto pshards = static_cast<std::size_t>(nshards);
  for (std::size_t s = 1; s < pshards && leaf + (pshards - s) < nleaves; ++s) {
    const double target = total * static_cast<double>(s) / nshards;
    std::size_t cut = leaf + 1;  // at least one leaf per shard
    while (cut < nleaves - (pshards - s - 1) && prefix[cut] < target) ++cut;
    // Snap to whichever neighbour is closer to the ideal share.
    if (cut > leaf + 1 &&
        target - prefix[cut - 1] < prefix[cut] - target)
      --cut;
    bounds.push_back(p.tri_bounds[cut]);
    leaf = cut;
  }
  bounds.push_back(p.n);
  return bounds;
}

template <class T>
PlanArtifact<T> slice_shard_artifact(const PlanArtifact<T>& full,
                                     const std::vector<index_t>& bounds,
                                     int shard_index,
                                     std::uint64_t worker_options) {
  const auto count = static_cast<int>(bounds.size()) - 1;
  BLOCKTRI_CHECK(shard_index >= 0 && shard_index < count);
  const index_t row_begin = bounds[static_cast<std::size_t>(shard_index)];
  const index_t row_end = bounds[static_cast<std::size_t>(shard_index) + 1];

  // Everything but the matrix is shared: copy the decisions, then cut the
  // stored rows down to the shard's interval.
  PlanArtifact<T> out;
  out.structure = full.structure;
  out.options = worker_options;
  out.plan = full.plan;
  out.waves = full.waves;
  out.nnz = full.nnz;
  out.stored = extract_block(full.stored, row_begin, row_end, 0, full.plan.n);
  out.build_ops = full.build_ops;
  out.build_bytes = full.build_bytes;
  out.tuned = full.tuned;
  out.merge_width = full.merge_width;
  out.tune_fell_back = full.tune_fell_back;
  out.tune_device = full.tune_device;
  out.oracle_default_ns = full.oracle_default_ns;
  out.oracle_tuned_ns = full.oracle_tuned_ns;
  out.tri = full.tri;
  out.squares = full.squares;

  out.shard = true;
  out.shard_index = static_cast<std::uint32_t>(shard_index);
  out.shard_count = static_cast<std::uint32_t>(count);
  out.shard_row_begin = row_begin;
  out.shard_row_end = row_end;
  out.shard_bounds = bounds;
  return out;
}

template <class T>
std::vector<std::vector<LocalStep>> build_local_schedule(
    const PlanArtifact<T>& slice) {
  BLOCKTRI_CHECK_MSG(slice.shard, "schedule requires a shard slice");
  const std::vector<index_t>& bounds = slice.shard_bounds;
  const auto count = static_cast<int>(bounds.size()) - 1;
  const auto self = static_cast<int>(slice.shard_index);

  // Shard owning permuted row r: bounds are few, a linear scan is fine.
  const auto owner_of = [&](index_t r) {
    for (int s = 0; s < count; ++s)
      if (r < bounds[static_cast<std::size_t>(s) + 1]) return s;
    return count - 1;
  };

  std::vector<std::vector<LocalStep>> sched;
  // The shard owns the triangles inside its rows and every square with
  // nonzeros in them — the blocks BlockSolver builds from the slice.
  const index_t row_begin = slice.shard_row_begin;
  const index_t row_end = slice.shard_row_end;
  const BlockPlan& p = slice.plan;
  for (const std::vector<ExecStep>& wave : slice.waves) {
    std::vector<LocalStep> local;
    for (const ExecStep& step : wave) {
      const auto idx = static_cast<std::size_t>(step.index);
      if (step.kind == ExecStep::Kind::kTri) {
        if (p.tri_bounds[idx] < row_begin || p.tri_bounds[idx + 1] > row_end)
          continue;
        LocalStep ls;
        ls.step = step;
        ls.publish = p.tri_bounds[idx + 1];
        local.push_back(std::move(ls));
      } else {
        const SquareBlockRef& q = p.squares[idx];
        const index_t a = std::max(q.r0, row_begin);
        const index_t b = std::min(q.r1, row_end);
        if (b <= a || count_block_nnz(slice.stored, a - row_begin,
                                      b - row_begin, q.c0, q.c1) == 0)
          continue;
        LocalStep ls;
        ls.step = step;
        // The slice reads x[c0, c1): each upstream shard overlapping that
        // column range must have published up to its end of the overlap.
        // The own-shard portion needs no wait — local steps run in plan
        // order, so the local watermark already covers it.
        index_t c = q.c0;
        while (c < q.c1) {
          const int up = owner_of(c);
          const index_t up_end = bounds[static_cast<std::size_t>(up) + 1];
          const index_t need = std::min(q.c1, up_end);
          if (up != self) ls.waits.push_back({up, need});
          c = need;
        }
        local.push_back(std::move(ls));
      }
    }
    if (!local.empty()) sched.push_back(std::move(local));
  }
  return sched;
}

#define BLOCKTRI_SHARD_PLAN_INSTANTIATE(T)                                   \
  template std::vector<index_t> compute_shard_cuts(const PlanArtifact<T>&,   \
                                                   int);                     \
  template PlanArtifact<T> slice_shard_artifact(                             \
      const PlanArtifact<T>&, const std::vector<index_t>&, int,              \
      std::uint64_t);                                                        \
  template std::vector<std::vector<LocalStep>> build_local_schedule(         \
      const PlanArtifact<T>&);

BLOCKTRI_SHARD_PLAN_INSTANTIATE(float)
BLOCKTRI_SHARD_PLAN_INSTANTIATE(double)

}  // namespace blocktri::shard
