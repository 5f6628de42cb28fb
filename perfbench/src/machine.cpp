// The machine block printed with every result, and the copy loop behind
// machine.stream_gbps. Everything is read through the CPU and the C
// library (cpuid, sysconf), so the benchmark opens no file outside its
// checkout.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "common/simd.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char s[49] = {};
  std::memcpy(s, regs, 48);
  std::string out(s);
  const auto b = out.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : out.substr(b);
#else
  return "unknown";
#endif
}

}  // namespace

MachineInfo machine_info() {
  MachineInfo m;
  m.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  m.hardware_concurrency = std::thread::hardware_concurrency();
  m.cpu_model = cpu_brand();
  m.simd_path = blocktri::simd::to_string(blocktri::simd::active_path());
  m.vector_isa = blocktri::simd::vector_isa_name();
  m.compiler = PERFBENCH_COMPILER;
  m.flags = PERFBENCH_CXX_FLAGS;
  long llc = 0;
#ifdef _SC_LEVEL3_CACHE_SIZE
  llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  m.llc_bytes = llc > 0 ? llc : 32L << 20;
  return m;
}

void print_machine(const MachineInfo& m) {
  std::printf("# machine nproc=%ld hardware_concurrency=%u\n", m.nproc,
              m.hardware_concurrency);
  std::printf("# machine cpu=%s\n", m.cpu_model.c_str());
  std::printf("# machine simd_path=%s vector_isa=%s\n", m.simd_path.c_str(),
              m.vector_isa.c_str());
  std::printf("# machine compiler=%s flags=%s\n", m.compiler.c_str(),
              m.flags.c_str());
  std::printf("# machine git_sha=%s\n", m.git_sha.c_str());
  std::printf("# machine llc_mib=%.1f stream_array_mib=%.1f\n",
              static_cast<double>(m.llc_bytes) / (1 << 20),
              4.0 * static_cast<double>(m.llc_bytes) / (1 << 20));
}

double stream_copy_gbps(std::size_t bytes) {
  const std::size_t n = bytes / sizeof(double);
  std::vector<double> a(n, 1.0), c(n, 0.0);
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = now_ms();
    double* __restrict dst = c.data();
    const double* __restrict src = a.data();
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    const double ms = now_ms() - t0;
    a[pass] += c[n - 1 - static_cast<std::size_t>(pass)];  // keep the copy live
    // Copy moves every byte twice: read from a, written to c.
    if (ms > 0.0) best = std::max(best, 2.0 * static_cast<double>(bytes) / (ms * 1e6));
  }
  return best;
}

}  // namespace perfbench
