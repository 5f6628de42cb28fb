#include "analysis/features.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace blocktri {

template <class T>
MatrixFeatures compute_features(const Csr<T>& a) {
  MatrixFeatures f;
  f.nrows = a.nrows;
  f.ncols = a.ncols;
  f.nnz = a.nnz();
  if (a.nrows == 0) return f;

  f.nnz_per_row = static_cast<double>(f.nnz) / static_cast<double>(f.nrows);
  f.min_row_nnz = a.row_nnz(0);
  double sq_sum = 0.0;
  index_t empty = 0;
  bool diag_only = a.nrows == a.ncols;
  for (index_t i = 0; i < a.nrows; ++i) {
    const offset_t r = a.row_nnz(i);
    f.max_row_nnz = std::max(f.max_row_nnz, r);
    f.min_row_nnz = std::min(f.min_row_nnz, r);
    const double d = static_cast<double>(r) - f.nnz_per_row;
    sq_sum += d * d;
    if (r == 0) ++empty;
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = a.col_idx[static_cast<std::size_t>(k)];
      f.bandwidth = std::max(f.bandwidth, index_distance(i, j));
      if (j != i) diag_only = false;
    }
  }
  f.empty_ratio = static_cast<double>(empty) / static_cast<double>(f.nrows);
  f.row_nnz_stddev = std::sqrt(sq_sum / static_cast<double>(f.nrows));
  f.diagonal_only = diag_only && f.nnz == f.nrows;
  return f;
}

template <class T>
TriangularFeatures compute_triangular_features(const Csr<T>& lower) {
  TriangularFeatures tf;
  tf.base = compute_features(lower);
  const LevelSets ls = compute_level_sets(lower);
  tf.nlevels = ls.nlevels;
  tf.parallelism = parallelism_stats(ls);
  return tf;
}

namespace {
// Word-at-a-time hash of a stream of 8-byte words: the xxHash64 stripe
// construction, with word k feeding lane k mod 4. The four lanes carry no
// dependency on one another, so the multiplies of consecutive words
// overlap instead of forming one serial chain.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;

inline std::uint64_t rotl64(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return rotl64(acc + word * kPrime2, 31) * kPrime1;
}

class WordHash {
 public:
  /// Feeds n words, each widened to a fixed 8 bytes so the hash does not
  /// depend on the platform's index_t/offset_t sizes.
  template <class I>
  void feed(const I* p, std::size_t n) {
    std::size_t i = 0;
    for (; i < n && (words_ & 3u) != 0; ++i)
      one(static_cast<std::uint64_t>(p[i]));
    std::uint64_t a = lane_[0], b = lane_[1], c = lane_[2], d = lane_[3];
    for (; i + 4 <= n; i += 4) {
      a = lane_round(a, static_cast<std::uint64_t>(p[i]));
      b = lane_round(b, static_cast<std::uint64_t>(p[i + 1]));
      c = lane_round(c, static_cast<std::uint64_t>(p[i + 2]));
      d = lane_round(d, static_cast<std::uint64_t>(p[i + 3]));
      words_ += 4;
    }
    lane_[0] = a;
    lane_[1] = b;
    lane_[2] = c;
    lane_[3] = d;
    for (; i < n; ++i) one(static_cast<std::uint64_t>(p[i]));
  }

  std::uint64_t finish() const {
    std::uint64_t h = rotl64(lane_[0], 1) + rotl64(lane_[1], 7) +
                      rotl64(lane_[2], 12) + rotl64(lane_[3], 18);
    for (const std::uint64_t v : lane_)
      h = (h ^ lane_round(0, v)) * kPrime1 + kPrime4;
    h += words_ * 8u;
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
  }

 private:
  void one(std::uint64_t w) {
    std::uint64_t& l = lane_[words_ & 3u];
    l = lane_round(l, w);
    ++words_;
  }

  std::uint64_t lane_[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  std::uint64_t words_ = 0;
};
}  // namespace

std::uint64_t structure_hash(index_t nrows, index_t ncols,
                             const std::vector<offset_t>& row_ptr,
                             const std::vector<index_t>& col_idx) {
  WordHash h;
  const offset_t dims[2] = {nrows, ncols};
  h.feed(dims, 2);
  h.feed(row_ptr.data(), row_ptr.size());
  h.feed(col_idx.data(), col_idx.size());
  return h.finish();
}

std::string describe(const MatrixFeatures& f) {
  std::ostringstream os;
  os << f.nrows << "x" << f.ncols << ", nnz=" << f.nnz
     << ", nnz/row=" << f.nnz_per_row << ", emptyratio=" << f.empty_ratio
     << ", max_row=" << f.max_row_nnz << ", bandwidth=" << f.bandwidth;
  return os.str();
}

#define BLOCKTRI_INSTANTIATE(T)                          \
  template MatrixFeatures compute_features(const Csr<T>&); \
  template TriangularFeatures compute_triangular_features(const Csr<T>&);

BLOCKTRI_INSTANTIATE(float)
BLOCKTRI_INSTANTIATE(double)
#undef BLOCKTRI_INSTANTIATE

}  // namespace blocktri
