// perfbench — one workload per run; the last stdout line is the JSON result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--out-dir <dir>] [--git-sha <sha>]
//
// Normally started through perfbench/run.py, which builds this binary first.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (reported_++ < 8) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void RunResult::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (reported_++ < 8) std::fprintf(stderr, "OP FAILED: %s\n", what.c_str());
}

void RunResult::put(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, Metric{value, unit}});
}

std::string RunResult::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].second.value)
                         ? metrics[i].second.value
                         : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
       << buf << ", \"unit\": \"" << metrics[i].second.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--out-dir <dir>] [--git-sha <sha>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else if (a == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) return usage();

  MachineInfo m = machine_info();
  m.git_sha = git_sha;
  print_machine(m);
  std::printf("# run workload=%s seed=%llu seconds=%g trace=%d tiny=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.tiny ? 1 : 0);
  std::fflush(stdout);

  RunResult res;
  try {
    if (!run_workload(args, res)) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", res.json().c_str());
  return 0;
}
