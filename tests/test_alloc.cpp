// Zero-allocation regression test for the warm solve hot path: after one
// warm-up call per shape, BlockSolver's raw-pointer solve()/solve_many()
// must not touch the heap. refresh_values is held to the same rule once its
// source map exists: from the first refresh of a warm-started solver, and
// from the second of a cold-built one. Enforced by replacing the global
// allocation functions with counting versions — any operator new between
// arm() and disarm() is recorded, and the warm-path tests assert the count
// stays zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/solver.hpp"
#include "gen/generators.hpp"
#include "helpers.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t sz) {
  if (g_armed.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  if (sz == 0) sz = 1;
  if (void* p = std::malloc(sz)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t sz) { return counted_alloc(sz); }
void* operator new[](std::size_t sz) { return counted_alloc(sz); }
void* operator new(std::size_t sz, const std::nothrow_t&) noexcept {
  if (g_armed.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(sz == 0 ? 1 : sz);
}
void* operator new[](std::size_t sz, const std::nothrow_t&) noexcept {
  if (g_armed.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(sz == 0 ? 1 : sz);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace blocktri {
namespace {

using blocktri::testing::test_matrices;

/// Counts operator-new calls made by `fn`.
template <class Fn>
std::uint64_t allocations_in(Fn&& fn) {
  g_news.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
  fn();
  g_armed.store(false, std::memory_order_release);
  return g_news.load(std::memory_order_relaxed);
}

class WarmSolveAlloc : public ::testing::Test {
 protected:
  void SetUp() override {
    // The zero-allocation guarantee is scoped to serial execution; the
    // fork-join pool's task dispatch may allocate. BLOCKTRI_THREADS can
    // override Options::threads from outside, so honour it.
    if (resolve_threads(1) != 1)
      GTEST_SKIP() << "warm-path allocation guarantee is threads=1 only";
  }
};

TEST_F(WarmSolveAlloc, SolveIsAllocationFreeWhenWarm) {
  for (const auto& tm : test_matrices()) {
    SCOPED_TRACE(tm.name);
    const auto L = tm.build();
    BlockSolver<double>::Options o;
    o.planner.stop_rows = 200;
    const BlockSolver<double> solver(L, o);
    const auto b = gen::random_rhs<double>(L.nrows, 7);
    std::vector<double> x(b.size());

    solver.solve(b.data(), x.data());  // warm-up sizes the workspace
    const std::uint64_t news =
        allocations_in([&] { solver.solve(b.data(), x.data()); });
    EXPECT_EQ(news, 0u);
  }
}

TEST_F(WarmSolveAlloc, SolveManyIsAllocationFreeWhenWarm) {
  for (const auto& tm : test_matrices()) {
    SCOPED_TRACE(tm.name);
    const auto L = tm.build();
    BlockSolver<double>::Options o;
    o.planner.stop_rows = 200;
    const BlockSolver<double> solver(L, o);
    const index_t k = 11;  // crosses a kRhsTile boundary with a tail
    std::vector<double> B, X;
    for (index_t c = 0; c < k; ++c) {
      const auto bc = gen::random_rhs<double>(L.nrows, 30 + static_cast<int>(c));
      B.insert(B.end(), bc.begin(), bc.end());
    }
    X.resize(B.size());

    solver.solve_many(B.data(), X.data(), k);  // warm-up
    const std::uint64_t news =
        allocations_in([&] { solver.solve_many(B.data(), X.data(), k); });
    EXPECT_EQ(news, 0u);
  }
}

TEST_F(WarmSolveAlloc, AlternatingShapesStayAllocationFree) {
  // The workspace is shared between the single and panel paths; once both
  // shapes have been seen, alternating between them must stay heap-free.
  const auto L = gen::random_levels(1500, 24, 3.0, 1.0, 8);
  BlockSolver<double>::Options o;
  o.planner.stop_rows = 200;
  const BlockSolver<double> solver(L, o);
  const auto b = gen::random_rhs<double>(L.nrows, 7);
  const index_t k = 4;
  std::vector<double> B, X(static_cast<std::size_t>(L.nrows) * k);
  for (index_t c = 0; c < k; ++c) {
    const auto bc = gen::random_rhs<double>(L.nrows, 60 + static_cast<int>(c));
    B.insert(B.end(), bc.begin(), bc.end());
  }
  std::vector<double> x(b.size());

  solver.solve(b.data(), x.data());
  solver.solve_many(B.data(), X.data(), k);
  const std::uint64_t news = allocations_in([&] {
    solver.solve(b.data(), x.data());
    solver.solve_many(B.data(), X.data(), k);
    solver.solve(b.data(), x.data());
  });
  EXPECT_EQ(news, 0u);
}

/// A refresh target: every value of `a` rescaled, the pattern unchanged.
Csr<double> rescaled(const Csr<double>& a, double f) {
  Csr<double> out = a;
  for (double& v : out.val) v *= f;
  return out;
}

/// One configuration per triangular kernel kind, each with a different
/// square kind, so every value array a refresh rewrites is covered.
std::vector<BlockSolver<double>::Options> refresh_configs() {
  std::vector<BlockSolver<double>::Options> out;
  const std::pair<TriKernelKind, SpmvKernelKind> kinds[] = {
      {TriKernelKind::kSyncFree, SpmvKernelKind::kScalarDcsr},
      {TriKernelKind::kLevelSet, SpmvKernelKind::kScalarCsr},
      {TriKernelKind::kCusparseLike, SpmvKernelKind::kVectorDcsr},
      {TriKernelKind::kCompletelyParallel, SpmvKernelKind::kVectorCsr}};
  for (BlockScheme scheme : {BlockScheme::kRecursive, BlockScheme::kColumn,
                             BlockScheme::kRow, BlockScheme::kHbmc})
    for (const auto& [tri, sq] : kinds) {
      BlockSolver<double>::Options o;
      o.scheme = scheme;
      o.planner.stop_rows = 200;
      o.adaptive = false;
      o.forced_tri = tri;
      o.forced_square = sq;
      out.push_back(o);
    }
  return out;
}

TEST_F(WarmSolveAlloc, RefreshAfterAWarmStartAllocatesNothing) {
  // create_from_file builds the source map while it permutes the caller's
  // matrix, so even the first refresh is heap-free and analysis-free.
  const auto L = gen::random_levels(1500, 24, 3.0, 1.0, 8);
  const Csr<double> L2 = rescaled(L, 1.5);
  const std::string path = ::testing::TempDir() + "alloc_refresh.btpa";
  for (const auto& o : refresh_configs()) {
    SCOPED_TRACE(to_string(o.scheme) + "/" + to_string(o.forced_tri));
    std::unique_ptr<BlockSolver<double>> cold, warm;
    ASSERT_TRUE(BlockSolver<double>::create(L, o, &cold).ok());
    ASSERT_TRUE(cold->save_artifact(path).ok());
    ASSERT_TRUE(BlockSolver<double>::create_from_file(path, L, o, &warm).ok());
    const std::uint64_t analyses = level_analysis_count();
    bool ok = false;
    EXPECT_EQ(allocations_in([&] { ok = warm->refresh_values(L2).ok(); }), 0u);
    EXPECT_TRUE(ok);
    EXPECT_EQ(allocations_in([&] { ok = warm->refresh_values(L).ok(); }), 0u);
    EXPECT_TRUE(ok);
    EXPECT_EQ(level_analysis_count(), analyses);
  }
  std::remove(path.c_str());
}

TEST_F(WarmSolveAlloc, RefreshOfAColdSolverAllocatesOnlyTheFirstTime) {
  // A cold build never saw the caller's matrix permuted onto its pattern;
  // its first refresh builds the source map, every later one is heap-free.
  const auto L = gen::random_levels(1500, 24, 3.0, 1.0, 8);
  const Csr<double> L2 = rescaled(L, 1.5);
  for (const auto& o : refresh_configs()) {
    SCOPED_TRACE(to_string(o.scheme) + "/" + to_string(o.forced_tri));
    std::unique_ptr<BlockSolver<double>> cold;
    ASSERT_TRUE(BlockSolver<double>::create(L, o, &cold).ok());
    const std::uint64_t analyses = level_analysis_count();
    ASSERT_TRUE(cold->refresh_values(L2).ok());
    bool ok = false;
    EXPECT_EQ(allocations_in([&] { ok = cold->refresh_values(L).ok(); }), 0u);
    EXPECT_TRUE(ok);
    EXPECT_EQ(allocations_in([&] { ok = cold->refresh_values(L2).ok(); }), 0u);
    EXPECT_TRUE(ok);
    EXPECT_EQ(level_analysis_count(), analyses);
  }
}

TEST_F(WarmSolveAlloc, CountingHookWorks) {
  // Sanity-check the instrumentation itself: an actual allocation inside the
  // armed window must be observed.
  const std::uint64_t news = allocations_in([] {
    std::vector<int>* v = new std::vector<int>(100);
    delete v;
  });
  EXPECT_GT(news, 0u);
}

}  // namespace
}  // namespace blocktri
