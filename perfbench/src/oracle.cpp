// Independent correctness oracle. Everything here reads the CSR arrays of the
// original input directly; no library kernel, permutation or residual helper
// is used, so a fault in the library cannot hide itself from the check.
#include <algorithm>
#include <cmath>
#include <limits>

#include "bench.hpp"

namespace perfbench {

double oracle_residual(const Csr<double>& lower, const double* x,
                       const double* b) {
  double r_inf = 0.0, l_inf = 0.0, x_inf = 0.0, b_inf = 0.0;
  for (index_t i = 0; i < lower.nrows; ++i) {
    double ax = 0.0, row_abs = 0.0;
    for (offset_t p = lower.row_ptr[i]; p < lower.row_ptr[i + 1]; ++p) {
      ax += lower.val[p] * x[lower.col_idx[p]];
      row_abs += std::fabs(lower.val[p]);
    }
    const double r = std::fabs(b[i] - ax);
    if (!(r <= r_inf)) r_inf = r;  // NaN-sticky
    l_inf = std::max(l_inf, row_abs);
    const double xi = std::fabs(x[i]);
    if (!(xi <= x_inf)) x_inf = xi;
    b_inf = std::max(b_inf, std::fabs(b[i]));
  }
  const double denom = l_inf * x_inf + b_inf;
  if (!(denom > 0.0)) return r_inf == 0.0 ? 0.0 : r_inf;
  return r_inf / denom;
}

double oracle_limit(index_t n) {
  return 100.0 * static_cast<double>(n) *
         std::numeric_limits<double>::epsilon();
}

bool oracle_accepts(const Csr<double>& lower, const double* x,
                    const double* b) {
  const double r = oracle_residual(lower, x, b);
  return std::isfinite(r) && r <= oracle_limit(lower.nrows);
}

namespace {

// splitmix64: the oracle's own generator, independent of common/rng.
struct Mix {
  std::uint64_t s;
  double unit() {  // [0, 1)
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }
};

// Plain forward substitution (diagonal stored last in each row).
std::vector<double> forward(const Csr<double>& lower,
                            const std::vector<double>& b) {
  std::vector<double> x(b.size());
  for (index_t i = 0; i < lower.nrows; ++i) {
    double s = b[i];
    const offset_t last = lower.row_ptr[i + 1] - 1;
    for (offset_t p = lower.row_ptr[i]; p < last; ++p)
      s -= lower.val[p] * x[lower.col_idx[p]];
    x[i] = s / lower.val[last];
  }
  return x;
}

}  // namespace

Csr<double> revalue(const Csr<double>& lower, std::uint64_t seed) {
  Csr<double> out = lower;
  Mix rng{seed * 0x2545f4914f6cdd1dULL + 17};
  for (index_t i = 0; i < out.nrows; ++i) {
    const offset_t last = out.row_ptr[i + 1] - 1;
    double off = 0.0;
    for (offset_t p = out.row_ptr[i]; p < last; ++p) {
      out.val[p] *= 0.5 + rng.unit();
      off += std::fabs(out.val[p]);
    }
    out.val[last] = 1.0 + off;
  }
  return out;
}

void oracle_self_test(RunResult& res) {
  const Csr<double> a = blocktri::gen::random_topological_shuffle(
      blocktri::gen::laplace3d(10, 10, 10, 5), 5);
  std::vector<double> b(static_cast<std::size_t>(a.nrows));
  Mix rng{42};
  for (double& v : b) v = 2.0 * rng.unit() - 1.0;

  const std::vector<double> x = forward(a, b);
  res.check(oracle_accepts(a, x.data(), b.data()),
            "oracle self-test: exact solve accepted");

  std::vector<double> bad = x;
  double x_inf = 0.0;
  for (double v : x) x_inf = std::max(x_inf, std::fabs(v));
  bad[bad.size() / 3] += 1e-3 * x_inf;
  res.check(!oracle_accepts(a, bad.data(), b.data()),
            "oracle self-test: one perturbed entry rejected");

  const Csr<double> refreshed = revalue(a, 7);
  const std::vector<double> x_new = forward(refreshed, b);
  res.check(oracle_accepts(refreshed, x_new.data(), b.data()),
            "oracle self-test: refreshed solve accepted");
  res.check(!oracle_accepts(a, x_new.data(), b.data()),
            "oracle self-test: solve against pre-refresh values rejected");
}

}  // namespace perfbench
