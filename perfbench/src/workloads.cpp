// The three workloads. Every workload runs the same pipeline on its own
// inputs — cold set-up, artifact save and warm restart, single-RHS solves at
// one and two threads with value refreshes, k = 16 panels in process and
// through a 2-process shard pool, and open-loop service traffic — because
// every run reports every end-to-end metric. What differs is the input and
// the configuration each workload was chosen for (README.md, "Workloads").
//
// The measured time (--seconds) is spent in whole rounds of the same
// operations, so every metric's samples spread over the whole run. Set-up
// work (generating inputs, the first build, saving, forking the shard pool,
// expected answers) happens before it.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "order/hbmc.hpp"
#include "sptrsv/serial.hpp"
#include "sparse/permute.hpp"
#include "sparse/triangular.hpp"

namespace perfbench {

namespace {

using blocktri::BlockScheme;
using Solver = blocktri::BlockSolver<double>;
using Options = Solver::Options;
using Coordinator = blocktri::shard::ShardCoordinator<double>;
namespace gen = blocktri::gen;
namespace svc = blocktri::service;

constexpr int kPool = 8;       // right-hand sides per input
constexpr index_t kPanel = 16; // panel width of the panel and shard phases
constexpr int kSenders = 4;    // open-loop sender threads
constexpr std::uint64_t kPatternSeed = 20200817;

struct Input {
  std::string name;
  Csr<double> L;  // as handed to the library: the oracle's reference
  Options opt;
  int weight = 1;  // share of service traffic
  std::vector<std::vector<double>> rhs;
};

struct Schedule {
  double low_rps = 0.0;
  std::vector<double> ladder;  // ascending offered rates
  double p99_limit_ms = 0.0;
};

struct Workload {
  std::vector<Input> inputs;  // inputs[0] drives the single-solver phases
  bool setup_via_service = false;
  Schedule sched;
};

// What one round of the measured time does, besides one set-up, one restart
// and one refresh (traced runs add threads = 2 solves and shard epochs). The
// rate ladder runs in traced runs only, after the rounds, for kShareLadder of
// --seconds: its result (service.max_rps) moves by whole rungs, too coarse for
// an end-to-end bound.
constexpr int kRoundSolves = 16;    // single-RHS solves
constexpr int kRoundPanels = 2;     // in-process and sharded panels each
constexpr int kRoundRequests = 12;  // service requests at the low rate
constexpr double kShareLadder = 0.40;

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  // Patterns are fixed (kPatternSeed); the run's seed draws the values and
  // the right-hand sides, so the spread between runs measures the program
  // and not the draw of a pattern.
  auto power_law = [&](index_t n, index_t levels) {
    return revalue(gen::power_law_levels(n, levels, 1.0, 1.8, tiny ? 200 : 2000,
                                         5.3, 1.3, /*hub_rows=*/2,
                                         /*hub_row_fill=*/0.01, /*hub_cols=*/3,
                                         /*hub_col_fill=*/0.05, kPatternSeed),
                   seed);
  };
  if (name == "iccg-laplace3d") {
    const index_t g = tiny ? 12 : 64;
    Input in;
    in.name = "laplace3d-" + std::to_string(g) + "-shuffled";
    in.L = gen::random_topological_shuffle(gen::laplace3d(g, g, g, seed),
                                           kPatternSeed);
    in.opt.scheme = BlockScheme::kHbmc;
    w.inputs.push_back(std::move(in));
    w.sched = {25.0, {50, 100, 150, 200, 300, 400}, 50.0};
  } else if (name == "restart-powerlaw") {
    Input in;
    in.name = tiny ? "power-law-6k" : "power-law-200k";
    in.L = tiny ? power_law(6000, 40) : power_law(200000, 400);
    if (tiny) in.opt.planner.stop_rows = 1024;
    w.inputs.push_back(std::move(in));
    w.sched = {25.0, {50, 100, 150, 200, 300, 400}, 50.0};
  } else if (name == "serve-mixed") {
    const index_t g = tiny ? 10 : 40;
    Input a;
    a.name = "laplace3d-" + std::to_string(g);
    a.L = gen::laplace3d(g, g, g, seed);
    a.weight = 3;
    Input b;
    b.name = tiny ? "power-law-4k" : "power-law-100k";
    b.L = tiny ? power_law(4000, 40) : power_law(100000, 400);
    if (tiny) a.opt.planner.stop_rows = b.opt.planner.stop_rows = 512;
    w.inputs.push_back(std::move(a));
    w.inputs.push_back(std::move(b));
    w.setup_via_service = true;
    w.sched = {50.0, {100, 200, 300, 400, 600, 800}, 25.0};
  } else {
    return w;
  }
  for (std::size_t i = 0; i < w.inputs.size(); ++i)
    for (int j = 0; j < kPool; ++j)
      w.inputs[i].rhs.push_back(gen::random_rhs<double>(
          w.inputs[i].L.nrows, seed * 1000 + i * 100 + j));
  return w;
}

bool raw_solve(const Solver& s, const double* b, double* x) {
  try {
    s.solve(b, x);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool raw_panel(const Solver& s, const double* B, double* X, index_t k) {
  try {
    s.solve_many(B, X, k);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// Fills an output buffer with NaN before a checked call, so a call that
/// leaves its output untouched fails the check that follows.
void poison(std::vector<double>& v) {
  std::fill(v.begin(), v.end(), std::numeric_limits<double>::quiet_NaN());
}

/// Runs fn(round) at least once, and until `budget_ms` has passed.
template <class Fn>
void rounds(double budget_ms, Fn&& fn) {
  const double end = now_ms() + budget_ms;
  int r = 0;
  do {
    fn(r++);
  } while (now_ms() < end);
}

// ---------------------------------------------------------------------------
// Open-loop service traffic

struct LoadStats {
  std::vector<double> latency_ms;  // from each request's due time
  std::vector<double> late_ms;     // how late the generator sent it
  std::int64_t attempted = 0, failed = 0, mismatched = 0;
};

/// Offers `rate` requests per second for `dur_ms` from kSenders threads on a
/// fixed schedule: request k is due at k / rate and goes to input
/// mix[k % mix.size()] with right-hand side (k·5 + seed) mod kPool. Each
/// response is compared bitwise with the solo solve of the same input.
LoadStats open_loop(svc::SolveService& service,
                    const std::vector<std::vector<svc::Request>>& reqs,
                    const std::vector<std::vector<std::vector<double>>>& want,
                    const std::vector<int>& mix, double rate, double dur_ms,
                    std::uint64_t seed, std::int64_t request_base) {
  const Span traffic("bench.traffic");
  const std::int64_t total =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(rate * dur_ms / 1e3));
  std::vector<LoadStats> per(kSenders);
  const double t0 = now_ms() + 2.0;
  std::vector<std::thread> senders;
  struct JoinAll {
    std::vector<std::thread>& threads;
    ~JoinAll() {
      for (std::thread& th : threads)
        if (th.joinable()) th.join();
    }
  } join_all{senders};
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&, t] {
      LoadStats& st = per[static_cast<std::size_t>(t)];
      for (std::int64_t k = t; k < total; k += kSenders) {
        const double due = t0 + static_cast<double>(k) * 1e3 / rate;
        double now = now_ms();
        if (now < due)
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(due - now));
        const int m = mix[static_cast<std::size_t>(k) % mix.size()];
        const int j = static_cast<int>((static_cast<std::uint64_t>(k) * 5 + seed) % kPool);
        const double sent = now_ms();
        svc::Response resp;
        bool ok = false;
        {
          Span s("service.request", request_base + k, t + 1, traffic.id());
          try {
            resp = service.solve(reqs[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)]);
            ok = resp.status.ok();
          } catch (const std::exception&) {
          }
        }
        const double done = now_ms();
        ++st.attempted;
        if (!ok) {
          ++st.failed;
          continue;
        }
        const std::vector<double>& x = want[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)];
        if (resp.x.size() != x.size() || !same_bits(resp.x.data(), x.data(), x.size()))
          ++st.mismatched;
        st.latency_ms.push_back(done - due);
        st.late_ms.push_back(sent - due);
      }
    });
  }
  for (std::thread& th : senders) th.join();
  LoadStats all;
  for (LoadStats& st : per) {
    all.latency_ms.insert(all.latency_ms.end(), st.latency_ms.begin(), st.latency_ms.end());
    all.late_ms.insert(all.late_ms.end(), st.late_ms.begin(), st.late_ms.end());
    all.attempted += st.attempted;
    all.failed += st.failed;
    all.mismatched += st.mismatched;
  }
  return all;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced runs only): direct calls into each layer's public
// functions on the workload's own input.

template <class Fn>
double median_of(int reps, const char* name, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(timed(name, fn));
  return median(v);
}

/// `solver` must hold the input's own values; `solve_ms` is the run's median
/// threads = 1 solve, the denominator of core.solve_gbps.
void probe_layers(RunResult& res, const Args& args, const Input& in,
                  const Solver& solver, double solve_ms) {
  const Csr<double>& L = in.L;
  const index_t n = L.nrows;
  const int reps = args.tiny ? 3 : 5;
  const std::vector<double>& b = in.rhs[0];
  std::vector<double> x(static_cast<std::size_t>(n));

  // sparse
  res.put("sparse.check_ms", median_of(reps, "sparse.check", [&] {
            res.op(blocktri::check_lower_triangular(L).ok(), "check_lower_triangular");
          }), "ms");
  res.put("sparse.permute_ms", median_of(reps, "sparse.permute", [&] {
            Csr<double> pl = blocktri::permute_symmetric(L, solver.plan().new_of_old);
            res.check(pl.nnz() == L.nnz(), "permute_symmetric keeps nnz");
          }), "ms");

  // analysis
  index_t nlevels = 0;
  res.put("analysis.levels_ms", median_of(reps, "analysis.levels", [&] {
            nlevels = blocktri::compute_level_sets(L).nlevels;
          }), "ms");
  res.put("analysis.nlevels", nlevels, "count");
  {
    const std::uint64_t a0 = blocktri::level_analysis_count();
    std::unique_ptr<Solver> s;
    timed("core.create", [&] {
      res.op(Solver::create(L, in.opt, &s).ok(), "cold create (probe)");
    });
    res.put("analysis.cold_analyses",
            static_cast<double>(blocktri::level_analysis_count() - a0), "count");
  }

  // order
  index_t colors = 0;
  res.put("order.hbmc_ms", median_of(reps, "order.hbmc", [&] {
            colors = blocktri::order::hbmc_partition(
                         L, in.opt.planner.hbmc_block_rows,
                         in.opt.planner.hbmc_max_colors)
                         .ncolors;
          }), "ms");
  res.put("order.colors", colors, "count");

  // core
  res.put("core.steps", static_cast<double>(solver.plan().steps.size()), "count");
  res.put("core.waves", static_cast<double>(solver.step_waves().size()), "count");
  {
    Options o = in.opt;
    o.collect_stats = true;
    auto art = std::make_shared<const blocktri::PlanArtifact<double>>(
        solver.capture_artifact());
    std::unique_ptr<Solver> s;
    res.op(Solver::create_from_artifact(art, o, &s).ok(), "rehydrate with stats");
    blocktri::SolveReport rep;
    if (s) {
      blocktri::SolveResult<double> r;
      timed("core.solve_checked", [&] { r = s->solve_checked(b); });
      res.op(r.ok(), "solve_checked");
      res.check(r.ok() && oracle_accepts(L, r.x.data(), b.data()),
                "solve_checked residual (oracle)");
      rep = r.report;
    }
    res.put("core.levels_executed", static_cast<double>(rep.levels_executed), "count");
    res.put("core.bytes_per_solve", static_cast<double>(rep.bytes), "B");
    res.put("core.flops_per_solve", static_cast<double>(rep.flops), "flop");
    res.put("core.solve_gbps",
            solve_ms > 0.0 ? static_cast<double>(rep.bytes) / (solve_ms * 1e6) : 0.0,
            "GB/s");
  }
  res.put("core.solve_k1_panel_ms", median_of(reps * 4, "core.solve_many_k1", [&] {
            res.op(raw_panel(solver, b.data(), x.data(), 1), "solve_many k=1");
          }), "ms");

  // sptrsv
  poison(x);
  res.put("sptrsv.serial_ms", median_of(reps * 2, "sptrsv.serial", [&] {
            blocktri::sptrsv_serial_raw(L, b.data(), x.data());
          }), "ms");
  res.check(oracle_accepts(L, x.data(), b.data()), "sptrsv_serial_raw residual (oracle)");
  {
    blocktri::ThreadPool pool2(2);
    blocktri::LevelSetSolver<double> ls(L);
    blocktri::SyncFreeSolver<double> sf(L);
    std::vector<double> scratch(static_cast<std::size_t>(n));
    poison(x);
    res.put("sptrsv.levelset_ms", median_of(reps * 2, "sptrsv.levelset", [&] {
              ls.solve(b.data(), x.data());
            }), "ms");
    res.check(oracle_accepts(L, x.data(), b.data()), "LevelSetSolver residual (oracle)");
    poison(x);
    res.put("sptrsv.syncfree_ms", median_of(reps * 2, "sptrsv.syncfree", [&] {
              sf.solve(b.data(), x.data(), nullptr, nullptr, scratch.data());
            }), "ms");
    res.check(oracle_accepts(L, x.data(), b.data()), "SyncFreeSolver residual (oracle)");
    poison(x);
    res.put("sptrsv.levelset_t2_ms", median_of(reps * 2, "sptrsv.levelset_t2", [&] {
              ls.solve(b.data(), x.data(), nullptr, &pool2);
            }), "ms");
    res.check(oracle_accepts(L, x.data(), b.data()), "LevelSetSolver t2 residual (oracle)");
    poison(x);
    res.put("sptrsv.syncfree_t2_ms", median_of(reps * 2, "sptrsv.syncfree_t2", [&] {
              sf.solve(b.data(), x.data(), nullptr, &pool2);
            }), "ms");
    res.check(oracle_accepts(L, x.data(), b.data()), "SyncFreeSolver t2 residual (oracle)");
  }

  // spmv over the strict lower part
  {
    const blocktri::StrictLowerSplit<double> split = blocktri::split_diagonal(L);
    std::vector<double> y(static_cast<std::size_t>(n));
    res.put("spmv.csr_ms", median_of(reps * 2, "spmv.csr", [&] {
              blocktri::spmv_scalar_csr(split.strict, b.data(), y.data(), nullptr);
            }), "ms");
    std::vector<double> X(static_cast<std::size_t>(n) * kPanel, 0.5), Y(X.size());
    res.put("spmv.csr_many16_ms", median_of(reps, "spmv.csr_many16", [&] {
              blocktri::spmv_scalar_csr_many(split.strict, X.data(), Y.data(), kPanel, n, n);
            }), "ms");
  }

  // persist
  {
    const std::string path = args.out_dir + "/probe-" + args.workload + ".btpa";
    const blocktri::PlanArtifact<double> art = solver.capture_artifact();
    res.put("persist.save_ms", median_of(3, "persist.save", [&] {
              res.op(blocktri::save_artifact(path, art).ok(), "save_artifact");
            }), "ms");
    blocktri::PlanArtifact<double> loaded;
    res.put("persist.load_ms", median_of(3, "persist.load", [&] {
              res.op(blocktri::load_artifact(path, &loaded).ok(), "load_artifact");
            }), "ms");
    res.put("persist.validate_ms", median_of(3, "persist.validate", [&] {
              res.op(blocktri::validate_artifact(loaded).ok(), "validate_artifact");
            }), "ms");
    auto shared = std::make_shared<const blocktri::PlanArtifact<double>>(std::move(loaded));
    std::unique_ptr<Solver> s;
    res.put("persist.rehydrate_ms", median_of(3, "persist.rehydrate", [&] {
              res.op(Solver::create_from_artifact(shared, in.opt, &s).ok(),
                     "create_from_artifact");
            }), "ms");
    std::remove(path.c_str());
  }
}

}  // namespace

bool run_workload(const Args& args, RunResult& res) {
  Workload w = make_workload(args.workload, args.seed, args.tiny);
  if (w.inputs.empty()) return false;
  ::mkdir(".bench_build", 0755);
  ::mkdir(args.out_dir.c_str(), 0755);
  tracer().enable(args.trace);
  const double budget = args.seconds * 1e3;
  const Input& in0 = w.inputs[0];
  const index_t n0 = in0.L.nrows;
  const std::size_t nn0 = static_cast<std::size_t>(n0);
  for (const Input& in : w.inputs)
    std::printf("# input %s rows=%d nnz=%lld\n", in.name.c_str(), in.L.nrows,
                static_cast<long long>(in.L.nnz()));

  oracle_self_test(res);

  std::vector<double> register_ms;
  auto cold_create = [&](const Input& in, std::unique_ptr<Solver>* out) {
    return timed("core.create", [&] {
      res.op(Solver::create(in.L, in.opt, out).ok(), "cold create " + in.name);
    });
  };
  auto new_service = [&](std::size_t count, std::unique_ptr<svc::SolveService>* out,
                         std::vector<std::uint64_t>* ids) {
    *out = std::make_unique<svc::SolveService>();
    ids->assign(count, 0);
    double total = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const Input& in = w.inputs[i];
      const double ms = timed("service.register", [&] {
        res.op((*out)->register_matrix(in.L, in.opt, &(*ids)[i]).ok(),
               "register_matrix " + in.name);
      });
      register_ms.push_back(ms);
      total += ms;
    }
    return total;
  };
  // One set-up, in seconds: a cold build with no plan cache or, for the
  // service workload, registering every input into an empty service.
  auto one_setup = [&] {
    if (w.setup_via_service) {
      std::unique_ptr<svc::SolveService> s;
      std::vector<std::uint64_t> ids;
      return new_service(w.inputs.size(), &s, &ids) / 1e3;
    }
    std::unique_ptr<Solver> s;
    return cold_create(in0, &s) / 1e3;
  };

  // --- set-up, outside the measured time ------------------------------------
  auto setup_span = std::make_unique<Span>("bench.setup");
  std::unique_ptr<Solver> cold;
  cold_create(in0, &cold);
  if (!cold) {
    res.check(false, "cold create produced no solver");
    return true;
  }
  std::vector<double> x_cold(nn0);
  res.op(raw_solve(*cold, in0.rhs[0].data(), x_cold.data()), "cold solve");
  res.check(oracle_accepts(in0.L, x_cold.data(), in0.rhs[0].data()),
            "cold solve residual (oracle)");

  const std::string art_path =
      args.out_dir + "/" + args.workload + "-" + std::to_string(args.seed) + ".btpa";
  timed("persist.save_artifact", [&] {
    res.op(cold->save_artifact(art_path).ok(), "save_artifact");
  });
  double artifact_mib = 0.0;
  {
    struct stat sb {};
    if (::stat(art_path.c_str(), &sb) == 0)
      artifact_mib = static_cast<double>(sb.st_size) / (1 << 20);
  }
  // Restarts from the artifact; each must re-run no analysis and solve
  // bitwise as the cold solver did.
  std::uint64_t warm_analyses = 0;
  auto restart = [&](std::unique_ptr<Solver>* out) {
    const std::uint64_t a0 = blocktri::level_analysis_count();
    const double ms = timed("persist.create_from_file", [&] {
      res.op(Solver::create_from_file(art_path, in0.L, in0.opt, out).ok(),
             "create_from_file");
    });
    warm_analyses += blocktri::level_analysis_count() - a0;
    std::vector<double> x(nn0);
    res.op(*out && raw_solve(**out, in0.rhs[0].data(), x.data()), "warm solve");
    res.check(same_bits(x.data(), x_cold.data(), nn0),
              "create_from_file solver equals the cold solver bitwise");
    return ms;
  };
  std::unique_ptr<Solver> warm;
  restart(&warm);
  if (!warm) {
    res.check(false, "warm restart produced no solver");
    return true;
  }

  // Threads = 2 twin of the cold solver (traced runs only, core.solve_t2_ms).
  std::unique_ptr<Solver> t2;
  if (args.trace) {
    Options o = in0.opt;
    o.threads = 2;
    auto art = std::make_shared<const blocktri::PlanArtifact<double>>(cold->capture_artifact());
    res.op(Solver::create_from_artifact(art, o, &t2).ok(), "rehydrate at threads=2");
  }
  const std::vector<Csr<double>> values = {in0.L, revalue(in0.L, args.seed * 31 + 1),
                                           revalue(in0.L, args.seed * 31 + 2)};

  // Panel of kPanel distinct right-hand sides and its solo answers from the
  // warm solver, which keeps the input's own values.
  const std::vector<double> B = gen::random_rhs<double>(n0 * kPanel, args.seed * 7 + 3);
  std::vector<double> X(B.size()), X_solo(B.size());
  for (index_t c = 0; c < kPanel; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * nn0;
    res.op(raw_solve(*warm, B.data() + off, X_solo.data() + off), "solo solve of a panel column");
    res.check(oracle_accepts(in0.L, X_solo.data() + off, B.data() + off),
              "panel reference column residual (oracle)");
  }

  // Shard pool over the warm solver.
  std::unique_ptr<Coordinator> coord;
  double shard_create_ms = 0.0;
  {
    Options o = in0.opt;
    o.shard.processes = 2;
    o.shard.max_panel = kPanel;
    o.shard.artifact_dir = args.out_dir;
    shard_create_ms = timed("shard.create", [&] {
      res.op(Coordinator::create(*warm, o, &coord).ok(), "ShardCoordinator::create");
    });
  }
  if (!coord) {
    res.check(false, "no shard pool");
    return true;
  }
  // One checked epoch in every run. Only traced runs time epochs: with two
  // worker processes beside the coordinator the epoch time follows the host's
  // load too closely for an end-to-end bound (README.md).
  poison(X);
  res.op(coord->solve_many(B.data(), X.data(), kPanel).ok(), "shard solve_many");
  res.check(same_bits(X.data(), X_solo.data(), X.size()),
            "shard panel equals in-process panel bitwise");
  if (!args.trace) {
    res.check(coord->stats().worker_level_analyses == 0,
              "shard workers performed no level analysis");
    coord.reset();
  }

  // Service for the traffic phases, with the expected (solo) answers.
  std::unique_ptr<svc::SolveService> service;
  std::vector<std::uint64_t> ids;
  new_service(w.setup_via_service ? w.inputs.size() : 1, &service, &ids);
  std::vector<std::vector<svc::Request>> reqs(ids.size());
  std::vector<std::vector<std::vector<double>>> want(ids.size());
  std::vector<double> solo_ms;
  std::vector<int> mix;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Input& in = w.inputs[i];
    const Solver* s = service->solver(ids[i]);
    if (!s) {
      res.check(false, "service has no solver for " + in.name);
      return true;
    }
    for (int j = 0; j < kPool; ++j) {
      const std::vector<double>& b = in.rhs[static_cast<std::size_t>(j)];
      svc::Request rq;
      rq.matrix_id = ids[i];
      rq.b = b;
      reqs[i].push_back(std::move(rq));
      std::vector<double> x(static_cast<std::size_t>(in.L.nrows));
      solo_ms.push_back(timed("service.solo_solve", [&] {
        res.op(raw_solve(*s, b.data(), x.data()), "service solver solo solve");
      }));
      res.check(oracle_accepts(in.L, x.data(), b.data()),
                "service solo solve residual (oracle) " + in.name);
      want[i].push_back(std::move(x));
    }
    for (int k = 0; k < in.weight; ++k) mix.push_back(static_cast<int>(i));
  }

  setup_span.reset();

  std::int64_t request_base = 0;
  auto offer = [&](double rate, double dur_ms) {
    LoadStats st = open_loop(*service, reqs, want, mix, rate, dur_ms, args.seed, request_base);
    request_base += st.attempted;
    res.attempted += st.attempted;
    res.failed += st.failed;
    res.check(st.mismatched == 0, "service responses equal solo solves bitwise");
    return st;
  };

  // ===================== measured time =======================================
  // Rounds: every round repeats the same operations, so each metric's
  // samples are spread over the whole window instead of one stretch of it.
  std::vector<double> setup_s, warm_ms, refresh_ms, t1_ms, t2_ms, panel_ms, shard_ms;
  LoadStats low;
  std::vector<double> x1(nn0);
  rounds(budget, [&](int r) {
    const Span round("bench.round");
    setup_s.push_back(one_setup());
    // The round's own restarted solver carries its panels, refresh and
    // solves, so solver memory is fresh every round too.
    std::unique_ptr<Solver> s;
    warm_ms.push_back(restart(&s));
    if (!s) return;
    res.op(raw_panel(*s, B.data(), X.data(), kPanel), "solve_many k=16 (first of its shape)");
    for (int p = 0; p < kRoundPanels; ++p) {
      poison(X);
      panel_ms.push_back(timed("core.solve_many", [&] {
        res.op(raw_panel(*s, B.data(), X.data(), kPanel), "solve_many k=16");
      }));
      res.check(same_bits(X.data(), X_solo.data(), X.size()),
                "panel columns equal solo solves bitwise");
    }
    // Install the next value set, then solve on it.
    const Csr<double>& cur = values[static_cast<std::size_t>(r + 1) % values.size()];
    refresh_ms.push_back(timed("core.refresh_values", [&] {
      res.op(s->refresh_values(cur).ok(), "refresh_values");
    }));
    for (int j = 0; j < kRoundSolves; ++j) {
      const std::vector<double>& b = in0.rhs[static_cast<std::size_t>(j % kPool)];
      if (j == 0) poison(x1);
      t1_ms.push_back(timed("core.solve", [&] {
        res.op(raw_solve(*s, b.data(), x1.data()), "solve");
      }));
      if (j == 0)
        res.check(oracle_accepts(cur, x1.data(), b.data()), "solve after refresh (oracle)");
    }
    if (t2) {
      res.op(t2->refresh_values(cur).ok(), "refresh_values threads=2");
      for (int j = 0; j < kPool; ++j) {
        const std::vector<double>& b = in0.rhs[static_cast<std::size_t>(j)];
        if (j == 0) poison(x1);
        t2_ms.push_back(timed("core.solve_t2", [&] {
          res.op(raw_solve(*t2, b.data(), x1.data()), "solve threads=2");
        }));
        if (j == 0)
          res.check(oracle_accepts(cur, x1.data(), b.data()),
                    "threads=2 solve after refresh (oracle)");
      }
    }
    for (int p = 0; coord && p < kRoundPanels; ++p) {
      poison(X);
      shard_ms.push_back(timed("shard.solve_many", [&] {
        res.op(coord->solve_many(B.data(), X.data(), kPanel).ok(), "shard solve_many");
      }));
      res.check(same_bits(X.data(), X_solo.data(), X.size()),
                "shard panel equals in-process panel bitwise");
    }
    // A stretch of open-loop traffic at the fixed low rate.
    const LoadStats st =
        offer(w.sched.low_rps, kRoundRequests * 1e3 / w.sched.low_rps);
    low.latency_ms.insert(low.latency_ms.end(), st.latency_ms.begin(), st.latency_ms.end());
    low.late_ms.insert(low.late_ms.end(), st.late_ms.begin(), st.late_ms.end());
  });
  std::remove(art_path.c_str());
  res.check(warm_analyses == 0, "create_from_file performed no level analysis");

  blocktri::shard::CoordinatorStats cs;
  if (coord) {
    cs = coord->stats();
    std::printf("# shards=%d\n", coord->shard_count());
    coord.reset();
    res.check(cs.worker_level_analyses == 0, "shard workers performed no level analysis");
  }

  // svc_p50_ms assumes that low-rate requests mostly run as panels of width
  // 1. The service has seen only low-rate traffic so far, so its counters
  // show whether that held.
  {
    const svc::ServiceStats lo = service->stats();
    std::printf("# low-rate service requests=%llu panels=%llu coalesce_ratio=%.3f "
                "max_panel_width=%llu width1_share=%.3f\n",
                static_cast<unsigned long long>(lo.requests),
                static_cast<unsigned long long>(lo.panels), lo.coalesce_ratio,
                static_cast<unsigned long long>(lo.max_panel_width),
                lo.requests ? 1.0 - static_cast<double>(lo.coalesced_requests) /
                                        static_cast<double>(lo.requests)
                            : 0.0);
  }

  // Traced runs: the rate ladder.
  double max_rps = 0.0;
  if (args.trace) {
    const double rung_ms = budget * kShareLadder / static_cast<double>(w.sched.ladder.size());
    for (double rate : w.sched.ladder) {
      const LoadStats st = offer(rate, rung_ms);
      const double p99 = quantile(st.latency_ms, 0.99);
      const double late99 = quantile(st.late_ms, 0.99);
      const bool pass = st.failed == 0 && p99 <= w.sched.p99_limit_ms &&
                        late99 <= w.sched.p99_limit_ms;
      std::printf("# ladder rate=%g requests=%lld p50_ms=%.3f p99_ms=%.3f "
                  "late_p99_ms=%.3f %s\n",
                  rate, static_cast<long long>(st.attempted), median(st.latency_ms), p99,
                  late99, pass ? "pass" : "fail");
      if (!pass) break;
      max_rps = rate;
    }
  }
  const svc::ServiceStats ss = service->stats();
  double lease_waits = 0.0;
  for (std::uint64_t id : ids)
    lease_waits += static_cast<double>(service->solver(id)->workspace_stats().lease_waits);

  auto quartiles = [](const char* name, const std::vector<double>& v) {
    std::printf("# samples %-14s n=%-5zu q1=%.4f median=%.4f q3=%.4f\n", name, v.size(),
                quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75));
  };
  quartiles("setup_s", setup_s);
  quartiles("warm_start_ms", warm_ms);
  quartiles("refresh_ms", refresh_ms);
  quartiles("solve_ms", t1_ms);
  quartiles("panel_ms", panel_ms);
  quartiles("shard_ms", shard_ms);
  quartiles("svc_latency_ms", low.latency_ms);
  quartiles("svc_late_ms", low.late_ms);

  const double solve_ms = median(t1_ms);
  if (!args.trace) {
    res.put("setup_s", median(setup_s), "s");
    res.put("solve_ms", solve_ms, "ms");
    res.put("refresh_ms", median(refresh_ms), "ms");
    res.put("panel_rhs_per_s", kPanel * 1e3 / median(panel_ms), "RHS/s");
    res.put("warm_start_ms", median(warm_ms), "ms");
    res.put("artifact_mib", artifact_mib, "MiB");
    res.put("svc_p50_ms", median(low.latency_ms), "ms");
    return true;
  }

  // ===================== traced run: per-layer metrics =======================
  // The probes use the warm solver: it still holds the input's own values.
  {
    const Span probes("bench.probes");
    probe_layers(res, args, in0, *warm, solve_ms);
  }
  res.put("core.solve_t2_ms", median(t2_ms), "ms");
  res.put("analysis.warm_analyses", static_cast<double>(warm_analyses), "count");
  res.put("service.register_ms", median(register_ms), "ms");
  res.put("service.solo_solve_ms", median(solo_ms), "ms");
  res.put("service.coalesce_ratio", ss.coalesce_ratio, "ratio");
  res.put("service.max_panel_width", static_cast<double>(ss.max_panel_width), "count");
  res.put("service.lease_waits", lease_waits, "count");
  res.put("service.max_rps", max_rps, "req/s");
  const double epochs = std::max<double>(1.0, static_cast<double>(cs.epochs));
  res.put("shard.create_ms", shard_create_ms, "ms");
  res.put("shard.epoch_ms", median(shard_ms), "ms");
  res.put("shard.halo_wait_ms", cs.wait_ms / epochs, "ms");
  res.put("shard.halo_deferred", static_cast<double>(cs.halo_deferred) / epochs, "count");
  res.put("shard.worker_analyses", static_cast<double>(cs.worker_level_analyses), "count");

  const MachineInfo m = machine_info();
  const std::size_t stream_bytes =
      args.tiny ? (16u << 20) : static_cast<std::size_t>(4 * m.llc_bytes);
  double stream_gbps = 0.0;
  timed("machine.stream", [&] { stream_gbps = stream_copy_gbps(stream_bytes); });
  res.put("machine.stream_gbps", stream_gbps, "GB/s");

  // Tracing overhead: the same warm solve with the tracer off and on, in
  // alternation, compared by median.
  {
    std::vector<double> off, on;
    for (int i = 0; i < (args.tiny ? 10 : 40); ++i) {
      const double* b = in0.rhs[static_cast<std::size_t>(i % kPool)].data();
      tracer().enable(false);
      off.push_back(timed("core.solve", [&] { raw_solve(*warm, b, x1.data()); }));
      tracer().enable(true);
      on.push_back(timed("core.solve", [&] { raw_solve(*warm, b, x1.data()); }));
    }
    res.put("trace.overhead_pct", 100.0 * (median(on) - median(off)) / median(off), "%");
  }
  tracer().enable(false);

  const std::string trace_path =
      args.out_dir + "/trace-" + args.workload + "-" + std::to_string(args.seed) + ".json";
  if (!tracer().write_chrome(trace_path))
    std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
  std::printf("# spans written to %s\n%s", trace_path.c_str(), tracer().layer_table().c_str());
  return true;
}

}  // namespace perfbench
