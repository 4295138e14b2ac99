// pisa_perfbench: the serving benchmark's measuring binary.
//
//   pisa_perfbench --workload <paillier-requests|spectrum-churn>
//                  --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints two JSON lines on stdout: {"host": ...} (CPU, build, key sizes)
// and {"report": ...} with every end-to-end metric, the per-layer table
// (traced runs), the decision counts and the failure tally. The report is
// printed before the deployment is torn down, then "done" on stderr once
// teardown finished. Exits 1 on an oracle or signature mismatch or a failed
// layer-sum check, 2 on bad usage, 3 on an exception.
// perfbench/run.py builds this binary, runs it under a watchdog and turns
// the report into the benchmark's result line.
#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bigint/montgomery.hpp"
#include "bigint/prime.hpp"
#include "crypto/chacha_rng.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {
const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();
}

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// CPU brand string from cpuid (leaves 0x80000002..4).
std::string cpu_brand() {
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
  brand = brand.c_str();  // stop at the first NUL
  const auto first = brand.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : brand.substr(first);
}

void print_host(const Options& opt) {
  const bool ifma = __builtin_cpu_supports("avx512ifma");
  pisa::crypto::ChaChaRng rng{1};
  pisa::bn::BigUint m = pisa::bn::random_bits(rng, kPaillierBits);
  m.set_bit(kPaillierBits - 1);
  m.set_bit(0);
  const pisa::bn::Montgomery mont{m};
  std::printf(
      "{\"host\": {\"nproc\": %zu, \"cpu_model\": \"%s\", \"avx512ifma\": %s, "
      "\"montgomery_backend\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"compiler\": \"%s\", \"paillier_bits\": %zu, "
      "\"rsa_bits\": %zu, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}}\n",
      opt.nproc, json_escape(cpu_brand()).c_str(),
      ifma ? "true" : "false", mont.uses_ifma() ? "ifma" : "scalar",
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(), kPaillierBits, kRsaBits,
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);
}

void print_metrics(const char* key, const std::map<std::string, Metric>& table) {
  std::printf("\"%s\": {", key);
  bool first = true;
  for (const auto& [name, m] : table) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}");
}

void print_report(const RunResult& r) {
  std::printf("{\"report\": {\"attempted\": %llu, \"failed\": %llu, "
              "\"mismatches\": %llu, \"failed_frac\": %.9g, ",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.mismatches),
              r.attempted == 0 ? 1.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted));
  print_metrics("metrics", r.metrics);
  std::printf(", ");
  print_metrics("layers", r.layers);
  std::printf(", \"failed_checks\": [");
  for (std::size_t i = 0; i < r.failed_checks.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(r.failed_checks[i]).c_str());
  std::printf("], \"info\": {");
  bool first = true;
  for (const auto& [k, v] : r.info) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
                json_escape(v).c_str());
    first = false;
  }
  std::printf("}}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: pisa_perfbench --workload <paillier-requests|"
               "spectrum-churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.work_dir = ".bench_build/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--work-dir") opt.work_dir = v;
    else return usage();
  }
  if (argc % 2 == 0 || opt.seconds <= 0) return usage();

  void (*run)(const Options&, const Publish&) = nullptr;
  if (opt.workload == "paillier-requests") run = run_paillier_requests;
  else if (opt.workload == "spectrum-churn") run = run_spectrum_churn;
  else return usage();

  std::filesystem::create_directories(opt.work_dir);
  print_host(opt);
  bool correct = true;
  try {
    // Traced runs time the bigint/crypto primitives first, on an otherwise
    // idle process.
    RunResult table;
    declare_layers(table);
    opt.setup_start = kProcessStart;
    if (opt.trace) {
      measure_primitive_layers(table, opt.seed);
      opt.setup_start = Clock::now();
    }
    run(opt, [&](RunResult& r) {
      r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
      if (opt.trace) {
        for (auto& [k, v] : r.layers) table.layers[k] = v;
        r.layers = std::move(table.layers);
      }
      print_report(r);
      correct = r.mismatches == 0 && r.failed_checks.empty();
    });
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pisa_perfbench: %s failed (seed %llu): %s\n",
                 opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                 e.what());
    return 3;
  }
}
