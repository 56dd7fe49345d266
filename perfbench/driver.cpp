// perfbench_driver — the native half of the repository benchmark. run.py
// runs it once per workload step; it prints one JSON line (see
// Outcome::to_json) and exits 0 when the run was carried out, whether or
// not the outputs checked correct.
//
// usage: perfbench_driver <step> --seed n --seconds s --trace 0|1
//                         [--port p --machines n --clients c --requests n]
//   steps: paper-sweep | pool-contended | pool-ranked |
//          plan-warmup | plan-load | host-scale
#include "driver.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "harvest/dist/hyperexponential.hpp"
#include "harvest/dist/weibull.hpp"
#include "harvest/obs/buildinfo.hpp"
#include "harvest/obs/json.hpp"
#include "harvest/trace/synthetic.hpp"

namespace perfbench {

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

/// Midpoint of stratum i of n in [0, 1).
double stratum(std::size_t i, std::size_t n) {
  return (static_cast<double>(i % n) + 0.5) / static_cast<double>(n);
}

}  // namespace

std::vector<harvest::dist::DistributionPtr> stratified_laws(std::size_t n) {
  using namespace harvest;
  const trace::PoolSpec spec;
  const std::size_t half = (n + 1) / 2;
  std::vector<dist::DistributionPtr> laws;
  laws.reserve(n);
  for (std::size_t m = 0; m < n; ++m) {
    // Latin-hypercube pairing: the second parameter walks its strata with
    // a fixed stride so the pairs do not line up on a diagonal.
    const double u = stratum(m / 2, half);
    const double v = stratum((m / 2) * 37 + 11, half);
    if (m % 2 == 0) {
      const double shape =
          spec.shape_min + u * (spec.shape_max - spec.shape_min);
      const double log_scale =
          std::log(spec.scale_min_s) +
          v * (std::log(spec.scale_max_s) - std::log(spec.scale_min_s));
      laws.push_back(
          std::make_shared<dist::Weibull>(shape, std::exp(log_scale)));
    } else {
      const double short_mean =
          spec.bimodal_short_mean_min_s +
          u * (spec.bimodal_short_mean_max_s - spec.bimodal_short_mean_min_s);
      const double long_mean =
          spec.bimodal_long_mean_min_s +
          v * (spec.bimodal_long_mean_max_s - spec.bimodal_long_mean_min_s);
      const double p = spec.bimodal_short_weight;
      laws.push_back(std::make_shared<dist::Hyperexponential>(
          std::vector<double>{p, 1.0 - p},
          std::vector<double>{1.0 / short_mean, 1.0 / long_mean}));
    }
  }
  return laws;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double reference_s() {
  const auto start = Clock::now();
  std::mt19937_64 rng(0x5eedULL);
  std::vector<double> v(1 << 15);
  double acc = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    for (double& x : v) {
      const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
      x = std::exp(-3.0 * u) * std::pow(u + 0.5, 1.7);
      acc += std::log1p(x);
    }
    std::sort(v.begin(), v.end());
    std::unordered_map<std::uint64_t, double> map;
    for (std::size_t i = 0; i < v.size(); i += 2) {
      map[static_cast<std::uint64_t>(v[i] * 1e9)] += v[i + 1];
    }
    for (const auto& [k, x] : map) acc += x * static_cast<double>(k & 7);
  }
  static volatile double sink;
  sink = acc;
  return seconds_since(start);
}

std::string Outcome::to_json() const {
  harvest::obs::JsonWriter w;
  w.begin_object()
      .field("correct", correct)
      .field("attempted", attempted)
      .field("failed", failed)
      .field("digest", digest);
  w.key("problems").begin_array();
  for (const auto& p : problems) w.value(p);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, value] : metrics) w.field(name, value);
  w.end_object();
  w.key("info").begin_object();
  for (const auto& [name, value] : info) w.field(name, value);
  w.end_object();
  w.key("build_info").raw(harvest::obs::build_info_json());
  w.end_object();
  return w.str();
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver <paper-sweep|pool-contended|"
               "pool-ranked|plan-warmup|plan-load|host-scale> --seed n "
               "--seconds s --trace 0|1 "
               "[--port p --machines n --clients c --requests n]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string step = argv[1];
  perfbench::Options opts;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opts.trace = std::atoi(value) != 0;
    } else if (flag == "--port") {
      opts.port = std::atoi(value);
    } else if (flag == "--machines") {
      opts.machines = std::strtoul(value, nullptr, 10);
    } else if (flag == "--clients") {
      opts.clients = std::strtoul(value, nullptr, 10);
    } else if (flag == "--requests") {
      opts.requests = std::strtoul(value, nullptr, 10);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 0 || !(opts.seconds > 0.0)) return usage();

  perfbench::Outcome out;
  try {
    if (step == "paper-sweep") {
      out = perfbench::run_paper_sweep(opts);
    } else if (step == "pool-contended" || step == "pool-ranked") {
      out = perfbench::run_pool(opts, step == "pool-ranked");
    } else if (step == "plan-warmup") {
      out = perfbench::run_plan_warmup(opts);
    } else if (step == "plan-load") {
      out = perfbench::run_plan_load(opts);
    } else if (step == "host-scale") {
      out.metric("scale", perfbench::median({perfbench::host_scale(),
                                             perfbench::host_scale(),
                                             perfbench::host_scale()}));
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", step.c_str(),
                 e.what());
    return 1;
  }
  std::printf("%s\n", out.to_json().c_str());
  return 0;
}
