// Shared pieces of the benchmark driver: run options, the per-run outcome
// the driver prints as one JSON line for run.py, a result digest, and small
// timing and statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harvest/dist/distribution.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // plan-serve client only.
  int port = 0;
  std::size_t machines = 0;
  std::size_t clients = 2;
  std::size_t requests = 0;  ///< stop after this many; 0 = time only
};

/// What one workload run measured and checked. `metrics` become the
/// contract metrics in run.py; `info` values are printed but not bounded.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;
  std::vector<std::string> problems;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> info;

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void note(std::string name, double value) {
    info.emplace_back(std::move(name), value);
  }
  /// One JSON object on one line.
  [[nodiscard]] std::string to_json() const;
};

/// FNV-1a over the exact bytes of the values fed in: two runs digest equal
/// iff every fed value is bit-identical.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(std::string_view s) { bytes(s.data(), s.size()); }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The standard synthetic pool's law mix and parameter ranges
/// (trace::PoolSpec: half Weibull, half bimodal hyperexponential), with n
/// laws on a fixed stratified grid instead of drawn at random. Which laws
/// a pool holds decides much of a workload's work and traffic, so a fixed
/// grid keeps both comparable across seeds; the seed still drives every
/// sampled duration.
std::vector<harvest::dist::DistributionPtr> stratified_laws(std::size_t n);

/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// Wall time of one pass of a fixed, benchmark-owned computation (floating
/// point, a sort and a hash map, about 20 ms).
[[nodiscard]] double reference_s();

/// What reference_s() takes on the quiet 4-core x86 reference host.
inline constexpr double kReferenceS = 0.020;

/// kReferenceS / reference_s(): above 1 when this host runs slower than the
/// reference host right now.
[[nodiscard]] inline double host_scale() { return kReferenceS / reference_s(); }

/// Times calls on a host whose throughput drifts by up to a third within
/// minutes (shared with other tenants). A reference pass runs before the
/// first call and after each call; a call's scaled wall is its wall times
/// the mean host_scale() of the passes around it, i.e. the time it would
/// take on the reference host. The reference is the benchmark's own code,
/// so a change to the library moves raw and scaled walls alike.
class ScaledClock {
 public:
  template <typename F>
  void time(F&& call) {
    const auto start = Clock::now();
    call();
    raw.push_back(seconds_since(start));
    const double after = host_scale();
    scaled.push_back(raw.back() * 0.5 * (before_ + after));
    before_ = after;
  }

  std::vector<double> raw;     ///< wall of each call
  std::vector<double> scaled;  ///< wall of each call, host-speed scaled

 private:
  double before_ = host_scale();
};

/// Median scaled wall time of one call of `setup` (the workload's input
/// generation) over 21 calls. A generation takes a millisecond or two, so
/// a few calls would leave the figure to allocator and cache warm-up.
template <typename F>
double median_setup_s(F&& setup) {
  ScaledClock clock;
  for (int i = 0; i < 21; ++i) clock.time(setup);
  return median(std::move(clock.scaled));
}

Outcome run_paper_sweep(const Options& opts);
Outcome run_pool(const Options& opts, bool ranked);
Outcome run_plan_warmup(const Options& opts);
Outcome run_plan_load(const Options& opts);

}  // namespace perfbench
