// Plan persistence & cache tests.
//
// Contract under test: a solver rehydrated from a saved artifact or a warm
// PlanCache hit is indistinguishable from the cold-built one — same plan,
// bitwise-identical solves at every thread count — and performs ZERO
// level-set analysis (asserted via level_analysis_count). The artifact holds
// decisions plus one permuted matrix, never derived kernel storage (asserted
// on the file size). Artifact defects (truncation, bit rot, wrong
// version/precision/structure/options, decisions that disagree with the
// matrix) must map to typed Status codes, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "gen/generators.hpp"
#include "helpers.hpp"
#include "persist/artifact.hpp"
#include "persist/plan_cache.hpp"

namespace blocktri {
namespace {

using blocktri::testing::test_matrices;

template <class T>
typename BlockSolver<T>::Options small_block_options(
    BlockScheme scheme = BlockScheme::kRecursive) {
  typename BlockSolver<T>::Options opt;
  opt.scheme = scheme;
  opt.planner.stop_rows = 64;  // force real block structure on test sizes
  opt.planner.nseg = 4;
  return opt;
}

std::string artifact_path(const std::string& name) {
  return ::testing::TempDir() + "blocktri_" + name + ".btpa";
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

template <class T>
Csr<T> fixture(int which = 0) {
  Csr<double> d;
  switch (which) {
    case 0: d = gen::grid2d(40, 25, 5); break;
    case 1: d = gen::banded(800, 16, 3.0, 4); break;
    default: d = gen::random_levels(1500, 24, 3.0, 1.0, 8); break;
  }
  return gen::convert_values<T>(d);
}

// --- Bitwise round-trip: cold vs save -> load, all schemes/threads ---------
//
// At threads = 1 every path is exact, so cold and warm must agree bitwise.
// At threads > 1 the executor's own guarantees apply: solve_many is bitwise
// deterministic at any thread count (asserted bitwise), while solve() on
// sync-free blocks accumulates in completion order and is only
// rounding-equal run to run — there the warm solver is held to the same
// tight normwise bound the repo holds the threaded executor itself to.

template <class T>
void expect_equal_solvers(const BlockSolver<T>& cold,
                          const BlockSolver<T>& warm, const Csr<T>& L) {
  ASSERT_TRUE(equals(cold.plan(), warm.plan()));
  ASSERT_EQ(cold.tri_info().size(), warm.tri_info().size());
  for (std::size_t i = 0; i < cold.tri_info().size(); ++i) {
    EXPECT_EQ(cold.tri_info()[i].kind, warm.tri_info()[i].kind);
    EXPECT_EQ(cold.tri_info()[i].nnz, warm.tri_info()[i].nnz);
  }
  ASSERT_EQ(cold.step_waves().size(), warm.step_waves().size());
  const bool exact = cold.threads() == 1 && warm.threads() == 1;

  const auto b = gen::random_rhs<T>(L.nrows, 7);
  if (exact) {
    EXPECT_EQ(cold.solve(b), warm.solve(b));  // bitwise
  } else {
    EXPECT_TRUE(blocktri::testing::VectorsNear(
        warm.solve(b), cold.solve(b),
        blocktri::testing::default_tol<T>()));
  }

  const index_t k = 3;
  std::vector<T> B;
  for (index_t c = 0; c < k; ++c) {
    const auto col = gen::random_rhs<T>(L.nrows, 100 + static_cast<int>(c));
    B.insert(B.end(), col.begin(), col.end());
  }
  EXPECT_EQ(cold.solve_many(B, k), warm.solve_many(B, k));  // always bitwise

  SolveResult<T> rc = cold.solve_checked(b);
  SolveResult<T> rw = warm.solve_checked(b);
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(rw.ok());
  if (exact) {
    EXPECT_EQ(rc.x, rw.x);  // bitwise, including residual/refinement path
    EXPECT_EQ(rc.report.residual, rw.report.residual);
  } else {
    EXPECT_TRUE(blocktri::testing::VectorsNear(
        rw.x, rc.x, blocktri::testing::default_tol<T>()));
  }
}

template <class T>
void round_trip_scheme_threads(BlockScheme scheme, int threads,
                               const std::string& tag) {
  const Csr<T> L = fixture<T>(0);
  auto opt = small_block_options<T>(scheme);
  opt.threads = threads;

  std::unique_ptr<BlockSolver<T>> cold;
  ASSERT_TRUE(BlockSolver<T>::create(L, opt, &cold).ok());

  const std::string path = artifact_path(tag);
  ASSERT_TRUE(cold->save_artifact(path).ok());

  std::unique_ptr<BlockSolver<T>> warm;
  Status st = BlockSolver<T>::create_from_file(path, L, opt, &warm);
  ASSERT_TRUE(st.ok()) << st.to_string();
  expect_equal_solvers(*cold, *warm, L);
  std::remove(path.c_str());
}

TEST(PersistRoundTrip, AllSchemesThreadsDouble) {
  for (BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc})
    for (int threads : {1, 2, 4})
      round_trip_scheme_threads<double>(
          scheme, threads,
          "rt_d_" + to_string(scheme) + "_" + std::to_string(threads));
}

TEST(PersistRoundTrip, AllSchemesThreadsFloat) {
  for (BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc})
    for (int threads : {1, 2, 4})
      round_trip_scheme_threads<float>(
          scheme, threads,
          "rt_f_" + to_string(scheme) + "_" + std::to_string(threads));
}

// --- Format version ---------------------------------------------------------
//
// One format version is read and written. Version 6 keeps the decision-only
// layout of version 5 and keys it by the word-wise structure hash. Versions
// 1-4 carried derived kernel storage this build no longer decodes, and
// version 5 headers carry the retired byte-serial hash; both are refused.

TEST(PersistVersion, EveryArtifactStampsVersionSix) {
  const Csr<double> L = fixture<double>(0);
  ASSERT_EQ(kArtifactFormatVersion, 6u);
  for (BlockScheme scheme : {BlockScheme::kRecursive, BlockScheme::kColumn}) {
    auto opt = small_block_options<double>(scheme);
    std::unique_ptr<BlockSolver<double>> s;
    ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
    const std::string path = artifact_path("stamp_v6_" + to_string(scheme));
    ASSERT_TRUE(s->save_artifact(path).ok());
    const std::string bytes = read_file(path);
    ASSERT_GT(bytes.size(), 8u);
    EXPECT_EQ(bytes[4], 6);  // little-endian u32 version after the magic
    EXPECT_EQ(bytes[5], 0);
    std::remove(path.c_str());
  }
}

TEST(PersistVersion, StructureHashOfAFixedPatternIsPinned) {
  // The artifact header and the PlanCache key store this hash: a change to
  // it must come with a format version bump, never silently.
  Csr<double> L;
  L.nrows = L.ncols = 4;
  L.row_ptr = {0, 1, 3, 5, 8};
  L.col_idx = {0, 0, 1, 1, 2, 0, 2, 3};
  L.val.assign(L.col_idx.size(), 1.0);
  EXPECT_EQ(structure_hash(L), 0x5f683154a113193eULL);
  // Values are not part of the pattern; one moved entry is.
  Csr<double> revalued = L;
  revalued.val[3] = 5.0;
  EXPECT_EQ(structure_hash(revalued), structure_hash(L));
  Csr<double> moved = L;
  moved.col_idx[3] = 0;
  EXPECT_NE(structure_hash(moved), structure_hash(L));
}

TEST(PersistVersion, HbmcStampsVersionSixAndCarriesColors) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>(BlockScheme::kHbmc);
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
  const std::string path = artifact_path("stamp_hbmc");
  ASSERT_TRUE(s->save_artifact(path).ok());
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 8u);
  EXPECT_EQ(bytes[4], static_cast<char>(kArtifactFormatVersion));
  PlanArtifact<double> art;
  ASSERT_TRUE(load_artifact(path, &art).ok());
  EXPECT_EQ(art.plan.scheme, BlockScheme::kHbmc);
  EXPECT_EQ(art.plan.color_bounds, s->plan().color_bounds);
  EXPECT_EQ(art.plan.hbmc_block_rows, s->plan().hbmc_block_rows);
  std::remove(path.c_str());
}

TEST(PersistVersion, ColorSectionBitRotIsChecksumMismatch) {
  // The color section is written last, so the file's final payload bytes
  // belong to it; flipping one must surface as the section CRC, typed.
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>(BlockScheme::kHbmc);
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
  const std::string path = artifact_path("color_bitrot");
  ASSERT_TRUE(s->save_artifact(path).ok());
  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x20);
  write_file(path, bytes);
  PlanArtifact<double> art;
  const Status st = load_artifact(path, &art);
  EXPECT_EQ(st.code(), StatusCode::kChecksumMismatch);
  EXPECT_GE(st.location(), 0);
  std::remove(path.c_str());
}

// A plan captured at threads = 1 must replay when rehydrated at threads = 4
// — the fingerprint deliberately excludes the thread count, and the captured
// waves must equal the ones a threads = 4 cold build computes. solve_many is
// bitwise deterministic at any thread count, so it anchors the bitwise
// claim; plain solve() on sync-free blocks is rounding-equal under a pool
// (completion-order accumulation), matching the executor's own contract.
TEST(PersistRoundTrip, ThreadCountCrossover) {
  const Csr<double> L = fixture<double>(1);
  auto opt1 = small_block_options<double>();
  opt1.threads = 1;
  std::unique_ptr<BlockSolver<double>> cold1;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt1, &cold1).ok());
  const std::string path = artifact_path("crossover");
  ASSERT_TRUE(cold1->save_artifact(path).ok());

  auto opt4 = opt1;
  opt4.threads = 4;
  std::unique_ptr<BlockSolver<double>> cold4, warm4;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt4, &cold4).ok());
  ASSERT_TRUE(
      BlockSolver<double>::create_from_file(path, L, opt4, &warm4).ok());
  EXPECT_EQ(warm4->threads(), 4);
  ASSERT_EQ(warm4->step_waves().size(), cold4->step_waves().size());
  expect_equal_solvers(*cold4, *warm4, L);
  // And the batched path must agree bitwise with the serial capture source.
  const auto b = gen::random_rhs<double>(L.nrows, 3);
  EXPECT_EQ(cold1->solve_many(b, 1), warm4->solve_many(b, 1));
  std::remove(path.c_str());
}

// Every forced triangular kernel kind survives the round trip.
TEST(PersistRoundTrip, ForcedKernels) {
  const Csr<double> L = fixture<double>(2);
  for (TriKernelKind kind :
       {TriKernelKind::kCompletelyParallel, TriKernelKind::kLevelSet,
        TriKernelKind::kSyncFree, TriKernelKind::kCusparseLike}) {
    auto opt = small_block_options<double>();
    opt.adaptive = false;
    opt.forced_tri = kind;
    std::unique_ptr<BlockSolver<double>> cold;
    ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
    const std::string path = artifact_path("forced_" + to_string(kind));
    ASSERT_TRUE(cold->save_artifact(path).ok());
    std::unique_ptr<BlockSolver<double>> warm;
    ASSERT_TRUE(
        BlockSolver<double>::create_from_file(path, L, opt, &warm).ok());
    expect_equal_solvers(*cold, *warm, L);
    std::remove(path.c_str());
  }
}

// DCSR squares, if any are selected, must survive too (forced).
TEST(PersistRoundTrip, ForcedDcsrSquares) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  opt.adaptive = false;
  opt.forced_square = SpmvKernelKind::kVectorDcsr;
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  const std::string path = artifact_path("dcsr");
  ASSERT_TRUE(cold->save_artifact(path).ok());
  std::unique_ptr<BlockSolver<double>> warm;
  ASSERT_TRUE(BlockSolver<double>::create_from_file(path, L, opt, &warm).ok());
  expect_equal_solvers(*cold, *warm, L);
  std::remove(path.c_str());
}

// The full registry of structural families at the default options.
TEST(PersistRoundTrip, MatrixRegistrySweep) {
  for (const auto& tm : test_matrices()) {
    const Csr<double> L = tm.build();
    auto opt = small_block_options<double>();
    std::unique_ptr<BlockSolver<double>> cold;
    ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok()) << tm.name;
    const std::string path = artifact_path("sweep_" + tm.name);
    ASSERT_TRUE(cold->save_artifact(path).ok()) << tm.name;
    std::unique_ptr<BlockSolver<double>> warm;
    ASSERT_TRUE(BlockSolver<double>::create_from_file(path, L, opt, &warm)
                    .ok())
        << tm.name;
    const auto b = gen::random_rhs<double>(L.nrows, 11);
    EXPECT_EQ(cold->solve(b), warm->solve(b)) << tm.name;
    std::remove(path.c_str());
  }
}

TEST(PersistRoundTrip, VerifyDisabled) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  opt.verify.enabled = false;
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  const std::string path = artifact_path("noverify");
  ASSERT_TRUE(cold->save_artifact(path).ok());

  std::unique_ptr<BlockSolver<double>> warm;
  ASSERT_TRUE(BlockSolver<double>::create_from_file(path, L, opt, &warm).ok());
  const auto b = gen::random_rhs<double>(L.nrows, 5);
  EXPECT_EQ(cold->solve(b), warm->solve(b));

  // Asking for verify from a verify-less artifact is an options mismatch.
  auto want_verify = opt;
  want_verify.verify.enabled = true;
  PlanArtifact<double> art;
  ASSERT_TRUE(load_artifact(path, &art).ok());
  std::unique_ptr<BlockSolver<double>> bad;
  Status st = BlockSolver<double>::create_from_artifact(
      std::make_shared<PlanArtifact<double>>(std::move(art)), want_verify,
      &bad);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --- Derived storage stays out of the file --------------------------------
//
// The artifact holds one permuted CSR plus decisions, and every decision is
// O(n): the permutation (4 B per row), the level_of and level_item arrays
// of the level-scheduled leaves (8 B per row) and their level_ptr (at most
// 8 B per row plus 8 per leaf), and per block at most 40 B of level_ptr
// end, bounds, square extents, kinds, empty ratios, steps and wave
// entries. The header,
// section frames and counts fit in 1 KiB. A derived kernel structure of
// the blocks (a CSC, a block CSR, a DCSR) costs an index and a value per
// nonzero of its blocks on top and breaks the bound.

template <class T>
std::size_t size_bound(const BlockSolver<T>& s) {
  const auto n = static_cast<std::size_t>(s.n());
  const auto nnz = static_cast<std::size_t>(s.nnz());
  const std::size_t csr =
      (n + 1) * sizeof(offset_t) + nnz * (sizeof(index_t) + sizeof(T));
  const std::size_t blocks =
      s.plan().tri_bounds.size() + s.plan().squares.size() +
      s.plan().color_bounds.size();
  return csr + 20 * n + 40 * blocks + 1024;
}

TEST(PersistSize, FileIsOnePermutedCsrPlusLinearDecisions) {
  for (int which : {0, 2})
    for (BlockScheme scheme :
         {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
          BlockScheme::kHbmc}) {
      const Csr<double> L = fixture<double>(which);
      auto opt = small_block_options<double>(scheme);
      std::unique_ptr<BlockSolver<double>> s;
      ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
      const std::string path =
          artifact_path("size_" + to_string(scheme) + std::to_string(which));
      ASSERT_TRUE(s->save_artifact(path).ok());
      const std::size_t size = read_file(path).size();
      EXPECT_LE(size, size_bound(*s))
          << to_string(scheme) << " fixture " << which << ": " << size
          << " bytes";
      std::remove(path.c_str());
    }
}

// --- refresh_values --------------------------------------------------------

TEST(PersistRefresh, NewValuesMatchColdBuild) {
  const Csr<double> L1 = fixture<double>(1);
  Csr<double> L2 = L1;
  for (std::size_t i = 0; i < L2.val.size(); ++i)
    L2.val[i] *= 1.0 + 0.001 * static_cast<double>(i % 97);

  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> solver;
  ASSERT_TRUE(BlockSolver<double>::create(L1, opt, &solver).ok());
  ASSERT_TRUE(solver->refresh_values(L2).ok());

  std::unique_ptr<BlockSolver<double>> cold2;
  ASSERT_TRUE(BlockSolver<double>::create(L2, opt, &cold2).ok());
  expect_equal_solvers(*cold2, *solver, L2);
}

/// `a` with one strictly-lower entry moved one column left: same shape,
/// same nnz, different pattern. Empty when no entry can move.
template <class T>
std::optional<Csr<T>> move_one_entry(const Csr<T>& a) {
  for (index_t i = 0; i < a.nrows; ++i)
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      const index_t j = a.col_idx[ku];
      const bool free_left =
          k == a.row_ptr[static_cast<std::size_t>(i)] ||
          a.col_idx[ku - 1] < j - 1;
      if (j > 0 && j < i && free_left) {
        Csr<T> moved = a;
        --moved.col_idx[ku];
        return moved;
      }
    }
  return std::nullopt;
}

TEST(PersistRefresh, RejectsDifferentStructure) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> solver;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &solver).ok());

  EXPECT_EQ(solver->refresh_values(fixture<double>(1)).code(),
            StatusCode::kStructureMismatch);

  // Same shape and nnz count but one moved entry: hash must catch it.
  const std::optional<Csr<double>> moved = move_one_entry(L);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(solver->refresh_values(*moved).code(),
            StatusCode::kStructureMismatch);
}

/// `a` with one strictly-lower entry moved from its row to the first free
/// strictly-lower column of the last row: same shape and nnz, but two rows
/// change length. Empty when no entry can move.
template <class T>
std::optional<Csr<T>> move_entry_to_last_row(const Csr<T>& a) {
  const index_t n = a.nrows;
  const auto last = static_cast<std::size_t>(n - 1);
  // First column of the last row that is free (rows are sorted).
  index_t free_col = 0;
  for (offset_t k = a.row_ptr[last]; k < a.row_ptr[last + 1]; ++k) {
    if (a.col_idx[static_cast<std::size_t>(k)] != free_col) break;
    ++free_col;
  }
  if (free_col >= n - 1) return std::nullopt;
  for (index_t i = 0; i + 1 < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (a.row_nnz(i) < 2) continue;
    // Drop row i's first (strictly-lower) entry, add (n-1, free_col).
    const auto drop = static_cast<std::size_t>(a.row_ptr[iu]);
    Csr<T> b;
    b.nrows = a.nrows;
    b.ncols = a.ncols;
    b.row_ptr.push_back(0);
    for (index_t r = 0; r < n; ++r) {
      const auto ru = static_cast<std::size_t>(r);
      bool placed = r + 1 != n;
      for (offset_t k = a.row_ptr[ru]; k < a.row_ptr[ru + 1]; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        if (ku == drop) continue;
        if (!placed && a.col_idx[ku] > free_col) {
          b.col_idx.push_back(free_col);
          b.val.push_back(a.val[drop]);
          placed = true;
        }
        b.col_idx.push_back(a.col_idx[ku]);
        b.val.push_back(a.val[ku]);
      }
      b.row_ptr.push_back(static_cast<offset_t>(b.col_idx.size()));
    }
    return b;
  }
  return std::nullopt;
}

TEST(PersistRefresh, HashCollisionWithOtherRowLengthsIsRefused) {
  // The structure hash cannot prove a pattern. A pattern whose hash
  // collides but whose rows have other lengths would make the source map
  // read past its rows; refresh must refuse it before writing a value.
  const Csr<double> L = fixture<double>(0);
  const std::optional<Csr<double>> other = move_entry_to_last_row(L);
  ASSERT_TRUE(other.has_value());
  ASSERT_EQ(other->nnz(), L.nnz());
  ASSERT_TRUE(check_lower_triangular(*other).ok());
  const std::vector<double> b = gen::random_rhs<double>(L.nrows, 7);

  const auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  const std::string path = artifact_path("collide");
  ASSERT_TRUE(cold->save_artifact(path).ok());
  std::unique_ptr<BlockSolver<double>> warm;
  ASSERT_TRUE(BlockSolver<double>::create_from_file(path, L, opt, &warm).ok());
  std::remove(path.c_str());
  // The cold solver's first refresh builds its map; the warm one has it.
  ASSERT_TRUE(cold->refresh_values(L).ok());

  for (BlockSolver<double>* s : {cold.get(), warm.get()}) {
    const std::vector<double> x0 = s->solve(b);
    s->set_structure_hash_for_testing(structure_hash(*other));
    EXPECT_EQ(s->refresh_values(*other).code(),
              StatusCode::kStructureMismatch);
    EXPECT_EQ(s->solve(b), x0);
  }
}

TEST(PersistRefresh, RefreshAfterFileLoadUsesNewValues) {
  const Csr<double> L1 = fixture<double>(0);
  Csr<double> L2 = L1;
  for (double& v : L2.val) v *= 2.0;

  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L1, opt, &cold).ok());
  const std::string path = artifact_path("refresh_file");
  ASSERT_TRUE(cold->save_artifact(path).ok());

  // create_from_file installs L2's values even though the artifact holds
  // L1's — the artifact contributes the *analysis*, the caller the numbers.
  std::unique_ptr<BlockSolver<double>> warm;
  ASSERT_TRUE(
      BlockSolver<double>::create_from_file(path, L2, opt, &warm).ok());
  std::unique_ptr<BlockSolver<double>> cold2;
  ASSERT_TRUE(BlockSolver<double>::create(L2, opt, &cold2).ok());
  const auto b = gen::random_rhs<double>(L1.nrows, 9);
  EXPECT_EQ(cold2->solve(b), warm->solve(b));
  std::remove(path.c_str());
}

// --- refresh_values: differential sweep ------------------------------------
//
// However a solver was made — cold, create_from_file, create_from_artifact
// or a PlanCache hit — a refresh must leave it solving bitwise like a cold
// build on the new values, for every scheme, forced kernel kind, square
// format, precision and verify setting. Refreshing back returns bitwise to
// the first values, and a rejected refresh changes nothing.

enum class Origin { kCold, kFile, kArtifact, kCacheHit };

template <class T>
std::unique_ptr<BlockSolver<T>> make_solver(
    Origin origin, const Csr<T>& L, const typename BlockSolver<T>::Options& opt,
    const std::string& tag) {
  std::unique_ptr<BlockSolver<T>> cold, s;
  EXPECT_TRUE(BlockSolver<T>::create(L, opt, &cold).ok());
  switch (origin) {
    case Origin::kCold:
      return cold;
    case Origin::kFile: {
      const std::string path = artifact_path(tag);
      EXPECT_TRUE(cold->save_artifact(path).ok());
      EXPECT_TRUE(BlockSolver<T>::create_from_file(path, L, opt, &s).ok());
      std::remove(path.c_str());
      return s;
    }
    case Origin::kArtifact:
      EXPECT_TRUE(BlockSolver<T>::create_from_artifact(
                      std::make_shared<PlanArtifact<T>>(
                          cold->capture_artifact()),
                      opt, &s)
                      .ok());
      return s;
    case Origin::kCacheHit: {
      PlanCache<T> cache;
      EXPECT_TRUE(BlockSolver<T>::create(L, opt, &cold, &cache).ok());
      EXPECT_TRUE(BlockSolver<T>::create(L, opt, &s, &cache).ok());
      EXPECT_EQ(cache.stats().hits, 1u);
      return s;
    }
  }
  return nullptr;
}

/// What a solver answers: a solve, a k = 3 panel and, with verify on, a
/// checked solve.
template <class T>
struct Answers {
  std::vector<T> x, X, x_checked;
  StatusCode checked = StatusCode::kOk;
  bool operator==(const Answers&) const = default;
};

template <class T>
Answers<T> answers(const BlockSolver<T>& s, index_t n, bool verify) {
  Answers<T> a;
  a.x = s.solve(gen::random_rhs<T>(n, 7));
  std::vector<T> B;
  for (int c = 0; c < 3; ++c) {
    const auto col = gen::random_rhs<T>(n, 100 + c);
    B.insert(B.end(), col.begin(), col.end());
  }
  a.X = s.solve_many(B, 3);
  if (verify) {
    SolveResult<T> r = s.solve_checked(gen::random_rhs<T>(n, 7));
    a.x_checked = std::move(r.x);
    a.checked = r.status.code();
  }
  return a;
}

/// New values on the same pattern, diagonally dominant so every solve
/// stays well conditioned.
template <class T>
Csr<T> revalued(const Csr<T>& a, double scale) {
  Csr<T> out = a;
  for (index_t i = 0; i < out.nrows; ++i) {
    const offset_t last = out.row_ptr[static_cast<std::size_t>(i) + 1] - 1;
    T off = T(0);
    for (offset_t k = out.row_ptr[static_cast<std::size_t>(i)]; k < last; ++k) {
      T& v = out.val[static_cast<std::size_t>(k)];
      v *= static_cast<T>(scale + 0.01 * static_cast<double>(k % 13));
      off += std::abs(v);
    }
    out.val[static_cast<std::size_t>(last)] = T(1) + off;
  }
  return out;
}

template <class T>
void refresh_sweep(BlockScheme scheme) {
  const Csr<T> A = fixture<T>(0);
  const Csr<T> B = revalued(A, 0.7);
  const std::optional<Csr<T>> moved = move_one_entry(A);
  ASSERT_TRUE(moved.has_value());
  for (TriKernelKind tri :
       {TriKernelKind::kCompletelyParallel, TriKernelKind::kLevelSet,
        TriKernelKind::kSyncFree, TriKernelKind::kCusparseLike})
    for (SpmvKernelKind sq :
         {SpmvKernelKind::kScalarCsr, SpmvKernelKind::kScalarDcsr})
      for (bool verify : {true, false}) {
        auto opt = small_block_options<T>(scheme);
        opt.adaptive = false;
        opt.forced_tri = tri;
        opt.forced_square = sq;
        opt.verify.enabled = verify;
        if (verify) {
          // Checked solves walk block 0 one rung down the fallback ladder,
          // which solves with the block's verify copy.
          opt.fault.tri_block = 0;
          opt.fault.corrupt_attempts = 1;
        }
        const std::string cfg = to_string(scheme) + "/" + to_string(tri) +
                                "/" + to_string(sq) +
                                (verify ? "/verify" : "/noverify");
        std::unique_ptr<BlockSolver<T>> cold_a, cold_b;
        ASSERT_TRUE(BlockSolver<T>::create(A, opt, &cold_a).ok()) << cfg;
        ASSERT_TRUE(BlockSolver<T>::create(B, opt, &cold_b).ok()) << cfg;
        const Answers<T> want_a = answers(*cold_a, A.nrows, verify);
        const Answers<T> want_b = answers(*cold_b, A.nrows, verify);
        ASSERT_NE(want_a.x, want_b.x) << cfg;
        ASSERT_EQ(want_a.checked, StatusCode::kOk) << cfg;
        for (Origin origin : {Origin::kCold, Origin::kFile, Origin::kArtifact,
                              Origin::kCacheHit}) {
          SCOPED_TRACE(cfg + " origin " +
                       std::to_string(static_cast<int>(origin)));
          std::unique_ptr<BlockSolver<T>> s =
              make_solver(origin, A, opt,
                          "sweep_" + to_string(scheme) + "_" +
                              std::to_string(sizeof(T)));
          ASSERT_NE(s, nullptr);
          ASSERT_TRUE(s->refresh_values(B).ok());
          EXPECT_TRUE(answers(*s, A.nrows, verify) == want_b);
          ASSERT_TRUE(s->refresh_values(A).ok());
          EXPECT_TRUE(answers(*s, A.nrows, verify) == want_a);
          EXPECT_EQ(s->refresh_values(*moved).code(),
                    StatusCode::kStructureMismatch);
          EXPECT_TRUE(answers(*s, A.nrows, verify) == want_a);
        }
      }
}

TEST(PersistRefreshSweep, RecursiveDouble) {
  refresh_sweep<double>(BlockScheme::kRecursive);
}
TEST(PersistRefreshSweep, RecursiveFloat) {
  refresh_sweep<float>(BlockScheme::kRecursive);
}
TEST(PersistRefreshSweep, ColumnDouble) {
  refresh_sweep<double>(BlockScheme::kColumn);
}
TEST(PersistRefreshSweep, ColumnFloat) {
  refresh_sweep<float>(BlockScheme::kColumn);
}
TEST(PersistRefreshSweep, RowDouble) {
  refresh_sweep<double>(BlockScheme::kRow);
}
TEST(PersistRefreshSweep, RowFloat) { refresh_sweep<float>(BlockScheme::kRow); }
TEST(PersistRefreshSweep, HbmcDouble) {
  refresh_sweep<double>(BlockScheme::kHbmc);
}
TEST(PersistRefreshSweep, HbmcFloat) {
  refresh_sweep<float>(BlockScheme::kHbmc);
}

// --- Zero analysis on the warm paths ---------------------------------------

TEST(PersistWarmPath, LoadedSolverDoesZeroLevelAnalysis) {
  const Csr<double> L = fixture<double>(2);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  const std::string path = artifact_path("zero_analysis");
  ASSERT_TRUE(cold->save_artifact(path).ok());

  const std::uint64_t before = level_analysis_count();
  std::unique_ptr<BlockSolver<double>> warm;
  ASSERT_TRUE(BlockSolver<double>::create_from_file(path, L, opt, &warm).ok());
  const auto b = gen::random_rhs<double>(L.nrows, 1);
  (void)warm->solve(b);
  EXPECT_EQ(level_analysis_count(), before);
  std::remove(path.c_str());
}

TEST(PersistWarmPath, CacheHitDoesZeroLevelAnalysis) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  PlanCache<double> cache;

  std::unique_ptr<BlockSolver<double>> first;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &first, &cache).ok());
  ASSERT_EQ(cache.stats().misses, 1u);

  const std::uint64_t before = level_analysis_count();
  std::unique_ptr<BlockSolver<double>> second;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &second, &cache).ok());
  EXPECT_EQ(level_analysis_count(), before);  // the contract of the issue
  EXPECT_EQ(cache.stats().hits, 1u);

  const auto b = gen::random_rhs<double>(L.nrows, 2);
  EXPECT_EQ(first->solve(b), second->solve(b));
}

// --- PlanCache semantics ----------------------------------------------------

TEST(PlanCacheTest, HitMissEvictionCounters) {
  typename PlanCache<double>::Limits lim;
  lim.max_entries = 2;
  PlanCache<double> cache(lim);
  auto opt = small_block_options<double>();

  std::unique_ptr<BlockSolver<double>> s;
  for (int which : {0, 1, 0, 2, 1}) {  // 0,1 miss; 0 hit; 2 evicts 1; 1 miss
    ASSERT_TRUE(
        BlockSolver<double>::create(fixture<double>(which), opt, &s, &cache)
            .ok());
  }
  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 4u);
  EXPECT_EQ(st.inserts, 4u);
  EXPECT_EQ(st.evictions, 2u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_GT(st.bytes, 0u);
  EXPECT_LE(st.entries, lim.max_entries);
}

TEST(PlanCacheTest, LruOrder) {
  typename PlanCache<double>::Limits lim;
  lim.max_entries = 2;
  PlanCache<double> cache(lim);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;

  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(0), opt, &s, &cache).ok());
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(1), opt, &s, &cache).ok());
  // Touch 0 so 1 becomes LRU, then insert 2: 1 must be the victim.
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(0), opt, &s, &cache).ok());
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(2), opt, &s, &cache).ok());

  const std::uint64_t hits_before = cache.stats().hits;
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(0), opt, &s, &cache).ok());
  EXPECT_EQ(cache.stats().hits, hits_before + 1);  // 0 survived
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(1), opt, &s, &cache).ok());
  EXPECT_EQ(cache.stats().misses, 4u);  // 1 was evicted -> miss
}

TEST(PlanCacheTest, ByteCapBypassesOversizedArtifact) {
  typename PlanCache<double>::Limits lim;
  lim.max_bytes = 64;  // far below any real artifact
  PlanCache<double> cache(lim);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(0), opt, &s, &cache).ok());
  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.entries, 0u);  // handed back uncached, cache never wedges
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.inserts, 0u);
}

TEST(PlanCacheTest, OptionsChangeIsADifferentKey) {
  PlanCache<double> cache;
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &cache).ok());
  auto opt2 = opt;
  opt2.planner.stop_rows = 128;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt2, &s, &cache).ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
  // threads, by contrast, shares the entry.
  auto opt3 = opt;
  opt3.threads = 4;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt3, &s, &cache).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, SharedArtifactFirstWriterWins) {
  PlanCache<double> cache;
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &cache).ok());

  const PlanCacheKey key{s->structure_hash(),
                         BlockSolver<double>::options_fingerprint(opt)};
  auto a1 = cache.find(key);
  ASSERT_NE(a1, nullptr);
  auto a2 = cache.find(key);
  EXPECT_EQ(a1.get(), a2.get());  // same immutable object, shared

  // Inserting a duplicate keeps the original.
  auto dup = std::make_shared<PlanArtifact<double>>(s->capture_artifact());
  auto kept = cache.insert(dup);
  EXPECT_EQ(kept.get(), a1.get());
  EXPECT_NE(kept.get(), dup.get());

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.find(key), nullptr);      // gone
  EXPECT_TRUE(equals(a1->plan, s->plan())); // outstanding refs stay valid
}

TEST(PlanCacheTest, OverwriteInsertReplacesEntry) {
  PlanCache<double> cache;
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &cache).ok());
  const PlanCacheKey key{s->structure_hash(),
                         BlockSolver<double>::options_fingerprint(opt)};
  auto original = cache.find(key);
  ASSERT_NE(original, nullptr);

  auto replacement =
      std::make_shared<PlanArtifact<double>>(s->capture_artifact());
  auto kept = cache.insert(replacement);  // default: first writer wins
  EXPECT_EQ(kept.get(), original.get());

  kept = cache.insert(replacement, /*overwrite=*/true);
  EXPECT_EQ(kept.get(), replacement.get());
  EXPECT_EQ(cache.find(key).get(), replacement.get());
  EXPECT_EQ(cache.stats().entries, 1u);  // replaced in place, not duplicated
  EXPECT_TRUE(equals(original->plan, s->plan()));  // old refs stay valid
}

// The REVIEW-identified failure mode: a cached artifact under the right key
// whose contents fail the warm path (the hash-collision / corruption case)
// must be REPLACED by the cold rebuild, not kept — otherwise every future
// create() for that key pays the failed warm attempt plus a cold build
// forever.
TEST(PlanCacheTest, CreateReplacesEntryThatFailsWarmPath) {
  PlanCache<double> cache;
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());

  // Poison the cache: right key, contents that fail validation on the hit.
  auto bad = std::make_shared<PlanArtifact<double>>(s->capture_artifact());
  ASSERT_GE(bad->plan.n, 2);
  bad->plan.new_of_old[0] = bad->plan.new_of_old[1];
  cache.insert(bad);
  const PlanCacheKey key{s->structure_hash(),
                         BlockSolver<double>::options_fingerprint(opt)};
  ASSERT_EQ(cache.find(key).get(), bad.get());

  // The hit fails, create falls back to the cold build and still succeeds —
  // and the broken entry is replaced by the freshly captured artifact.
  std::unique_ptr<BlockSolver<double>> s2;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s2, &cache).ok());
  auto now = cache.find(key);
  ASSERT_NE(now, nullptr);
  EXPECT_NE(now.get(), bad.get());
  ASSERT_TRUE(validate_artifact(*now).ok());

  // A third create is a clean warm hit producing the reference solution.
  std::unique_ptr<BlockSolver<double>> s3;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s3, &cache).ok());
  const auto b = gen::random_rhs<double>(L.nrows, 13);
  EXPECT_EQ(s->solve(b), s3->solve(b));
}

// Concurrent creates against one cache: must be data-race free (TSan lane)
// and every solver must produce the reference solution.
TEST(PlanCacheTest, ConcurrentCreateAndSolve) {
  PlanCache<double> cache;
  auto opt = small_block_options<double>();
  const int kThreads = 4, kIters = 6;

  std::vector<Csr<double>> mats = {fixture<double>(0), fixture<double>(1),
                                   fixture<double>(2)};
  std::vector<std::vector<double>> refs;
  std::vector<std::vector<double>> rhs;
  for (std::size_t m = 0; m < mats.size(); ++m) {
    rhs.push_back(gen::random_rhs<double>(mats[m].nrows, 21 + (int)m));
    std::unique_ptr<BlockSolver<double>> s;
    ASSERT_TRUE(BlockSolver<double>::create(mats[m], opt, &s).ok());
    refs.push_back(s->solve(rhs.back()));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const std::size_t m = static_cast<std::size_t>(t + it) % mats.size();
        std::unique_ptr<BlockSolver<double>> s;
        if (!BlockSolver<double>::create(mats[m], opt, &s, &cache).ok() ||
            s->solve(rhs[m]) != refs[m])
          failures.fetch_add(1);
      }
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses,
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_LE(st.entries, mats.size());
}

// --- Fault injection on the byte stream ------------------------------------

class PersistFault : public ::testing::Test {
 protected:
  void SetUp() override {
    L_ = fixture<double>(0);
    auto opt = small_block_options<double>();
    ASSERT_TRUE(BlockSolver<double>::create(L_, opt, &solver_).ok());
    // Unique per test: the suite runs under a parallel ctest.
    path_ = artifact_path(
        std::string("fault_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    ASSERT_TRUE(solver_->save_artifact(path_).ok());
    bytes_ = read_file(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Status load_mutated(const std::string& bytes) {
    write_file(path_, bytes);
    PlanArtifact<double> art;
    return load_artifact(path_, &art);
  }

  Csr<double> L_;
  std::unique_ptr<BlockSolver<double>> solver_;
  std::string path_;
  std::string bytes_;
};

TEST_F(PersistFault, TruncationSweepNeverCrashes) {
  // Every header byte boundary, then a coarse sweep through the sections.
  std::vector<std::size_t> cuts;
  for (std::size_t c = 0; c < 64; ++c) cuts.push_back(c);
  for (std::size_t c = 64; c < bytes_.size(); c += bytes_.size() / 97 + 1)
    cuts.push_back(c);
  for (const std::size_t cut : cuts) {
    const Status st = load_mutated(bytes_.substr(0, cut));
    ASSERT_FALSE(st.ok()) << "cut at " << cut;
    EXPECT_EQ(st.code(), StatusCode::kTruncated) << "cut at " << cut;
    EXPECT_GE(st.location(), 0) << "cut at " << cut;  // byte offset reported
  }
}

TEST_F(PersistFault, FlippedMagic) {
  std::string b = bytes_;
  b[0] = 'X';
  EXPECT_EQ(load_mutated(b).code(), StatusCode::kBadFormat);
}

TEST_F(PersistFault, FutureVersion) {
  std::string b = bytes_;
  // Version is the little-endian u32 right after the magic; anything past
  // the newest readable version must be rejected (versions up to
  // kArtifactFormatVersion are all legal).
  b[4] = static_cast<char>(kArtifactFormatVersion + 1);
  EXPECT_EQ(load_mutated(b).code(), StatusCode::kVersionMismatch);
}

TEST_F(PersistFault, ZeroVersion) {
  std::string b = bytes_;
  b[4] = 0;
  EXPECT_EQ(load_mutated(b).code(), StatusCode::kVersionMismatch);
}

TEST_F(PersistFault, RetiredVersionsAreVersionMismatch) {
  // Versions 1-4 stored derived kernel storage and version 5 the retired
  // byte-serial structure hash; their readers are retired.
  for (char v : {1, 2, 3, 4, 5}) {
    std::string b = bytes_;
    b[4] = v;
    EXPECT_EQ(load_mutated(b).code(), StatusCode::kVersionMismatch)
        << "version " << int{v};
  }
}

TEST_F(PersistFault, WrongValueWidth) {
  // Loading a double artifact as float must fail typed, not misread.
  write_file(path_, bytes_);
  PlanArtifact<float> art;
  EXPECT_EQ(load_artifact(path_, &art).code(), StatusCode::kBadFormat);
}

TEST_F(PersistFault, CorruptedSectionPayload) {
  // Flip one byte well inside the first section payload: CRC32 must catch
  // it and name the section's byte offset.
  std::string b = bytes_;
  const std::size_t victim = 80;
  b[victim] = static_cast<char>(b[victim] ^ 0x40);
  const Status st = load_mutated(b);
  EXPECT_EQ(st.code(), StatusCode::kChecksumMismatch);
  EXPECT_GE(st.location(), 0);
}

TEST_F(PersistFault, CorruptionSweepAlwaysTyped) {
  // XOR a bit at every 131st byte: any of the typed rejections is fine,
  // silence or a crash is not.
  for (std::size_t pos = 0; pos < bytes_.size(); pos += 131) {
    std::string b = bytes_;
    b[pos] = static_cast<char>(b[pos] ^ 0x10);
    const Status st = load_mutated(b);
    if (st.ok()) {
      // Only acceptable for bytes the format does not interpret strictly
      // (e.g. a bit inside the header's structure hash makes a *different*,
      // still-wellformed artifact — create_from_file still rejects it).
      PlanArtifact<double> art;
      ASSERT_TRUE(load_artifact(path_, &art).ok());
      continue;
    }
    EXPECT_NE(st.code(), StatusCode::kInternal) << "byte " << pos;
  }
}

TEST_F(PersistFault, HeaderStructureHashTamperRejectedOnUse) {
  // The structure hash lives at bytes [16, 24). Tampering makes load
  // succeed (header is not CRC-guarded) but the solve-path entry point
  // rejects the artifact against the real matrix.
  std::string b = bytes_;
  b[16] = static_cast<char>(b[16] ^ 0x01);
  write_file(path_, b);
  std::unique_ptr<BlockSolver<double>> s;
  auto opt = small_block_options<double>();
  EXPECT_EQ(
      BlockSolver<double>::create_from_file(path_, L_, opt, &s).code(),
      StatusCode::kStructureMismatch);
}

TEST_F(PersistFault, StructureMismatchAgainstOtherMatrix) {
  std::unique_ptr<BlockSolver<double>> s;
  auto opt = small_block_options<double>();
  EXPECT_EQ(BlockSolver<double>::create_from_file(path_, fixture<double>(1),
                                                  opt, &s)
                .code(),
            StatusCode::kStructureMismatch);
}

TEST_F(PersistFault, OptionsMismatchTyped) {
  PlanArtifact<double> art;
  ASSERT_TRUE(load_artifact(path_, &art).ok());
  auto other = small_block_options<double>();
  other.planner.stop_rows = 32;
  std::unique_ptr<BlockSolver<double>> s;
  EXPECT_EQ(BlockSolver<double>::create_from_artifact(
                std::make_shared<PlanArtifact<double>>(std::move(art)), other,
                &s)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PersistFault, MissingFile) {
  PlanArtifact<double> art;
  EXPECT_EQ(load_artifact(::testing::TempDir() + "does_not_exist.btpa", &art)
                .code(),
            StatusCode::kBadFormat);
}

TEST_F(PersistFault, EmptyFile) {
  EXPECT_EQ(load_mutated("").code(), StatusCode::kTruncated);
}

TEST_F(PersistFault, ReadErrorIsIoErrorNotTruncated) {
  // fopen("rb") on a directory succeeds on Linux but the first fread fails
  // with EISDIR and sets ferror — the mid-stream I/O failure class that must
  // surface as kIoError (naming the path), not masquerade as a short file.
  PlanArtifact<double> art;
  const Status st = load_artifact(::testing::TempDir(), &art);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find(::testing::TempDir()), std::string::npos);
}

// --- Semantic corruption: CRC-valid but hostile contents --------------------
//
// Rehydration derives every kernel structure from the stored matrix and the
// executors index with plan contents unchecked (permute_vector writes
// out[new_of_old[i]], kernels read x[col_idx[k]]), so validate_artifact must
// prove the stored matrix a well-formed lower triangle and every decision
// consistent with it. Each test corrupts ONE field of a
// legitimately captured artifact and expects the typed kBadFormat rejection
// from both validate_artifact and the rehydration entry point — never a
// crash, never a silently wrong solver.

class PersistSemantic : public ::testing::Test {
 protected:
  PlanArtifact<double> capture(TriKernelKind tri, SpmvKernelKind sq) {
    L_ = fixture<double>(0);
    opt_ = small_block_options<double>();
    opt_.adaptive = false;
    opt_.forced_tri = tri;
    opt_.forced_square = sq;
    std::unique_ptr<BlockSolver<double>> s;
    EXPECT_TRUE(BlockSolver<double>::create(L_, opt_, &s).ok());
    return s->capture_artifact();
  }

  void expect_rejected(PlanArtifact<double> art, const char* why) {
    EXPECT_EQ(validate_artifact(art).code(), StatusCode::kBadFormat) << why;
    std::unique_ptr<BlockSolver<double>> s;
    EXPECT_EQ(BlockSolver<double>::create_from_artifact(
                  std::make_shared<PlanArtifact<double>>(std::move(art)),
                  opt_, &s)
                  .code(),
              StatusCode::kBadFormat)
        << why;
  }

  PlanArtifact<double> capture_hbmc() {
    // The banded fixture keeps several colors after aggregation (grid2d
    // collapses to one via the W-doubling fallback), so the interior-bound
    // corruptions below have bounds to corrupt.
    L_ = fixture<double>(1);
    opt_ = small_block_options<double>(BlockScheme::kHbmc);
    std::unique_ptr<BlockSolver<double>> s;
    EXPECT_TRUE(BlockSolver<double>::create(L_, opt_, &s).ok());
    return s->capture_artifact();
  }

  Csr<double> L_;
  BlockSolver<double>::Options opt_;
};

TEST_F(PersistSemantic, NonBijectivePermutation) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_GE(art.plan.n, 2);
  art.plan.new_of_old[0] = art.plan.new_of_old[1];  // duplicate target
  expect_rejected(std::move(art), "duplicate permutation target");
}

TEST_F(PersistSemantic, PermutationTargetOutOfRange) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_GE(art.plan.n, 1);
  art.plan.new_of_old[0] = art.plan.n;  // permute_vector would write out[n]
  expect_rejected(std::move(art), "permutation target out of range");
}

TEST_F(PersistSemantic, StoredColumnOutOfRange) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_FALSE(art.stored.col_idx.empty());
  art.stored.col_idx[0] = -1;  // extract_block would read x[-1]
  expect_rejected(std::move(art), "stored column out of range");
}

TEST_F(PersistSemantic, StoredEntryAboveDiagonal) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  // Row 0 holds only its diagonal; pointing it one column right puts an
  // entry above the diagonal (and leaves the row without one).
  ASSERT_EQ(art.stored.row_ptr[1], 1);
  art.stored.col_idx[0] = 1;
  expect_rejected(std::move(art), "stored entry above the diagonal");
}

TEST_F(PersistSemantic, LevelItemOutOfRange) {
  auto art = capture(TriKernelKind::kLevelSet, SpmvKernelKind::kScalarCsr);
  for (std::size_t t = 0; t < art.tri.size(); ++t) {
    auto& b = art.tri[t];
    if (b.kind != TriKernelKind::kLevelSet || b.levels.level_item.empty())
      continue;
    // The solver would read rows[len].
    b.levels.level_item[0] = art.plan.tri_bounds[t + 1] - art.plan.tri_bounds[t];
    expect_rejected(std::move(art), "level item out of range");
    return;
  }
  GTEST_SKIP() << "fixture produced no level-set block";
}

// Well-shaped level sets that are not a schedule of their block: one row of
// level 1 swaps slots with one of level 0 (level_of updated to match, so
// every shape and range check passes). The promoted row depends on a level-0
// row, so it would be solved before its input — a silently wrong answer.
TEST_F(PersistSemantic, LevelSetsThatAreNotAScheduleAreRejected) {
  L_ = gen::laplace3d(6, 6, 6, 1);
  opt_ = small_block_options<double>(BlockScheme::kRow);
  opt_.planner.nseg = 2;
  opt_.adaptive = false;
  opt_.forced_tri = TriKernelKind::kLevelSet;
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L_, opt_, &s).ok());
  PlanArtifact<double> art = s->capture_artifact();
  ASSERT_TRUE(validate_artifact(art).ok());
  for (auto& b : art.tri) {
    LevelSets& ls = b.levels;
    if (b.kind != TriKernelKind::kLevelSet || ls.nlevels < 2) continue;
    const auto last0 = static_cast<std::size_t>(ls.level_ptr[1] - 1);
    const auto first1 = static_cast<std::size_t>(ls.level_ptr[1]);
    std::swap(ls.level_item[last0], ls.level_item[first1]);
    ls.level_of[static_cast<std::size_t>(ls.level_item[last0])] = 0;
    ls.level_of[static_cast<std::size_t>(ls.level_item[first1])] = 1;
    expect_rejected(std::move(art), "level sets are not a schedule");
    return;
  }
  FAIL() << "fixture produced no multi-level level-set block";
}

TEST_F(PersistSemantic, CompletelyParallelBlockMustBeDiagonal) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  for (std::size_t t = 0; t < art.tri.size(); ++t) {
    if (art.tri[t].nlevels < 2) continue;
    // The diagonal kernel would ignore this block's off-diagonal entries.
    art.tri[t].kind = TriKernelKind::kCompletelyParallel;
    art.tri[t].nlevels = 1;
    expect_rejected(std::move(art), "completely-parallel block not diagonal");
    return;
  }
  GTEST_SKIP() << "fixture produced no multi-level block";
}

TEST_F(PersistSemantic, GarbageStepKind) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_FALSE(art.plan.steps.empty());
  art.plan.steps[0].kind = static_cast<ExecStep::Kind>(7);
  expect_rejected(std::move(art), "execution step kind out of range");
}

TEST_F(PersistSemantic, StepIndexOutOfRange) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_FALSE(art.plan.steps.empty());
  art.plan.steps[0].index = index_t{1} << 20;
  expect_rejected(std::move(art), "execution step index out of range");
}

TEST_F(PersistSemantic, GarbageSquareKernelKind) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  if (art.squares.empty()) GTEST_SKIP() << "fixture produced no squares";
  art.squares[0].kind = static_cast<SpmvKernelKind>(99);
  expect_rejected(std::move(art), "square kernel kind out of range");
}

TEST_F(PersistSemantic, GarbageScheme) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  art.plan.scheme = static_cast<BlockScheme>(42);
  expect_rejected(std::move(art), "block scheme out of range");
}

// One-field-at-a-time corruption of the color record (format v4). The color
// bounds drive the shard planner's cut points and the executor's wave
// schedule, so every invariant validate_artifact promises about them is
// exercised here the same way the kernel-facing fields are above.

TEST_F(PersistSemantic, ColorBoundsMissingOnHbmcPlan) {
  auto art = capture_hbmc();
  ASSERT_EQ(art.plan.scheme, BlockScheme::kHbmc);
  art.plan.color_bounds.clear();
  expect_rejected(std::move(art), "hbmc plan without color bounds");
}

TEST_F(PersistSemantic, ColorBoundsOnNonHbmcScheme) {
  auto art = capture_hbmc();
  art.plan.scheme = BlockScheme::kRecursive;  // bounds now claim the wrong scheme
  expect_rejected(std::move(art), "color bounds on a non-hbmc scheme");
}

TEST_F(PersistSemantic, NonPositiveColorBlockSize) {
  auto art = capture_hbmc();
  art.plan.hbmc_block_rows = 0;
  expect_rejected(std::move(art), "non-positive aggregation block size");
}

TEST_F(PersistSemantic, ColorBoundsDoNotStartAtZero) {
  auto art = capture_hbmc();
  ASSERT_GE(art.plan.color_bounds.size(), 2u);
  art.plan.color_bounds.front() = 1;
  expect_rejected(std::move(art), "color bounds do not start at row 0");
}

TEST_F(PersistSemantic, ColorBoundsDoNotEndAtN) {
  auto art = capture_hbmc();
  ASSERT_GE(art.plan.color_bounds.size(), 2u);
  art.plan.color_bounds.back() = art.plan.n - 1;
  expect_rejected(std::move(art), "color bounds do not end at n");
}

TEST_F(PersistSemantic, NonAscendingColorBounds) {
  // Equal adjacent bounds (an empty color) are tolerated like empty tri
  // leaves; a genuinely DESCENDING pair is not. Jump the first interior
  // bound to n — still on the leaf grid, so only ordering can reject it.
  auto art = capture_hbmc();
  if (art.plan.color_bounds.size() < 4)
    GTEST_SKIP() << "fixture aggregated to fewer than three colors";
  art.plan.color_bounds[1] = art.plan.n;
  expect_rejected(std::move(art), "non-ascending color bounds");
}

TEST_F(PersistSemantic, ColorBoundOffTheLeafGrid) {
  // A color boundary that does not land on a triangular leaf bound would
  // split a tri block across two sync colors — the executor has no step for
  // that. Nudge an interior bound to a row that is NOT a leaf bound.
  auto art = capture_hbmc();
  const auto& tb = art.plan.tri_bounds;
  auto& cb = art.plan.color_bounds;
  for (std::size_t i = 1; i + 1 < cb.size(); ++i) {
    const index_t v = cb[i] + 1;
    if (v >= cb[i + 1]) continue;  // must stay strictly ascending
    if (std::find(tb.begin(), tb.end(), v) != tb.end()) continue;
    cb[i] = v;
    expect_rejected(std::move(art), "color bound off the tri leaf grid");
    return;
  }
  GTEST_SKIP() << "every candidate nudge lands on a leaf bound";
}

TEST_F(PersistSemantic, SaveRefusesCorruptArtifact) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_GE(art.plan.n, 2);
  art.plan.new_of_old[0] = art.plan.new_of_old[1];
  const std::string path = artifact_path("refuse_corrupt");
  EXPECT_EQ(save_artifact(path, art).code(), StatusCode::kBadFormat);
  std::ifstream is(path, std::ios::binary);
  EXPECT_FALSE(is.good());  // nothing written
}

// --- Misc ------------------------------------------------------------------

TEST(PersistMisc, StructureHashDiscriminatesAndIsStable) {
  const Csr<double> a = fixture<double>(0);
  const Csr<double> b = fixture<double>(1);
  EXPECT_EQ(structure_hash(a), structure_hash(a));
  EXPECT_NE(structure_hash(a), structure_hash(b));
  Csr<double> scaled = a;
  for (double& v : scaled.val) v *= 3.0;
  EXPECT_EQ(structure_hash(a), structure_hash(scaled));  // values don't count
}

TEST(PersistMisc, ArtifactBytesTracksContent) {
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> small, big;
  ASSERT_TRUE(BlockSolver<double>::create(fixture<double>(0), opt, &small)
                  .ok());
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(2), opt, &big).ok());
  const auto sb = artifact_bytes(small->capture_artifact());
  const auto bb = artifact_bytes(big->capture_artifact());
  EXPECT_GT(sb, 0u);
  EXPECT_GT(bb, sb);  // rndlevels(1500, nnz~3/row) outweighs grid2d(1000)
}

TEST(PersistMisc, SaveIsAtomicNoTmpLeftBehind) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
  const std::string path = artifact_path("atomic");
  ASSERT_TRUE(s->save_artifact(path).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(PersistMisc, SaveToUnwritablePathIsTyped) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
  EXPECT_EQ(s->save_artifact("/nonexistent_dir_xyz/a.btpa").code(),
            StatusCode::kBadFormat);
}

}  // namespace
}  // namespace blocktri
