// plan-serve client side: a loopback HTTP/1.0 client for harvestd's /plan.
//
//   plan-warmup  one sequential /plan per machine; digests the plans and
//                reports the served schedules' planned efficiency and
//                checkpoint traffic per useful hour.
//   plan-load    a closed loop of `clients` threads (each sends its next
//                request when the previous reply has fully arrived) for
//                `seconds`, or until `requests` have been sent. Machine
//                ids are uniform; one request in ten carries fresh
//                predictor parameters, a PlanCache miss that runs the
//                optimizer inside the request. The loop pauses every
//                kSegmentS for reference passes that scale its block
//                times for host speed.
//
// A plain request is served from the machine's memoized plan without a
// PlanCache lookup, and its reply's cache.hit echoes the machine's last
// refit. So a request counts as a hit unless it carried predictor
// parameters and its reply says the plan was computed (cache.hit false).
//
// Latency is client-observed, connect to last byte. The request stream of
// client c is a pure function of (seed, c).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <thread>

#include "driver.hpp"
#include "harvest/condor/pool_simulation.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBlockRequests = 1000;
constexpr double kSegmentS = 2.0;

struct Reply {
  int status = 0;
  std::string body;
  double connect_us = 0.0;
};

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One GET; status 0 on a transport failure.
Reply get(int port, const std::string& target) {
  Reply reply;
  const auto start = Clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return reply;
  }
  reply.connect_us = seconds_since(start) * 1e6;
  std::string raw;
  if (write_all(fd, "GET " + target + " HTTP/1.0\r\n\r\n")) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      raw.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const auto head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 5, "HTTP/") != 0 || head_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + raw.find(' ') + 1);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

/// Number following `"key":` at or after `from`; NaN when absent.
double number_after(const std::string& body, const std::string& key,
                    std::size_t from = 0) {
  const auto pos = body.find("\"" + key + "\":", from);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(body.c_str() + pos + key.size() + 3, nullptr);
}

/// A well-formed plan: 200 with a non-empty schedule.
bool valid_plan(const Reply& r) {
  return r.status == 200 &&
         r.body.find("\"schedule\":[{") != std::string::npos;
}

struct Sample {
  double done_s = 0.0;
  double latency_us = 0.0;
  double connect_us = 0.0;
  bool ok = false;
  bool hit = false;
};

/// One client's loop for one segment: runs until `seconds` after `start`, or
/// until `requests` have been sent over all segments. `rng` carries the
/// client's request stream from one segment to the next.
void client_loop(const Options& opts, std::mt19937_64& rng,
                 Clock::time_point start, double seconds,
                 std::atomic<std::size_t>& sent, std::vector<Sample>& samples) {
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  char target[160];
  while (seconds_since(start) < seconds &&
         (opts.requests == 0 || sent.fetch_add(1) < opts.requests)) {
    const auto machine = static_cast<unsigned long long>(rng() % opts.machines);
    const bool predictor = rng() % 10 == 0;
    if (predictor) {
      const double p = uniform(0.5, 1.0);
      const double r = uniform(0.3, 0.9);
      const double window = uniform(300.0, 3600.0);
      std::snprintf(target, sizeof target,
                    "/plan?machine=%llu&p=%.6f&r=%.6f&window=%.3f", machine,
                    p, r, window);
    } else {
      std::snprintf(target, sizeof target, "/plan?machine=%llu", machine);
    }
    const auto t = Clock::now();
    const Reply reply = get(opts.port, target);
    Sample s;
    s.latency_us = seconds_since(t) * 1e6;
    s.done_s = seconds_since(start);
    s.connect_us = reply.connect_us;
    s.ok = valid_plan(reply);
    s.hit = !predictor ||
            reply.body.find("\"hit\":true") != std::string::npos;
    samples.push_back(s);
  }
}

}  // namespace

Outcome run_plan_warmup(const Options& opts) {
  Outcome out;
  Digest digest;
  double work_s = 0.0;
  double efficiency = 0.0;
  for (std::size_t m = 0; m < opts.machines; ++m) {
    const Reply reply = get(opts.port, "/plan?machine=" + std::to_string(m));
    ++out.attempted;
    const auto sched = reply.body.find("\"schedule\":[{");
    const double w = number_after(reply.body, "work_s", sched);
    const double e = number_after(reply.body, "efficiency", sched);
    if (!valid_plan(reply) || !(w > 0.0) || !(e > 0.0)) {
      ++out.failed;
      out.fail("machine " + std::to_string(m) + ": status " +
               std::to_string(reply.status) + ", no usable schedule");
      continue;
    }
    // Everything but the cache-counter object, which reports hit tallies
    // rather than the plan.
    const auto cache = reply.body.find("\"cache\":{");
    digest.add(std::string_view(reply.body).substr(0, cache));
    digest.add(std::string_view(reply.body).substr(sched));
    work_s += w;
    efficiency += e;
  }
  out.digest = digest.hex();
  const double served = static_cast<double>(out.attempted - out.failed);
  if (served > 0) {
    // One full checkpoint image per planned first interval of useful work;
    // harvestd plans with the pool simulation's default image size.
    const double checkpoint_mb =
        harvest::condor::PoolSimConfig{}.checkpoint_size_mb;
    out.metric("network_mb_per_useful_h",
               checkpoint_mb * served / (work_s / 3600.0));
    out.metric("efficiency", efficiency / served);
  }
  return out;
}

Outcome run_plan_load(const Options& opts) {
  if (opts.machines == 0 || opts.clients == 0) {
    throw std::invalid_argument("plan-load needs --machines and --clients");
  }
  Outcome out;
  std::vector<std::mt19937_64> rngs;
  for (std::size_t c = 0; c < opts.clients; ++c) {
    rngs.emplace_back(opts.seed * 0x9E3779B97F4A7C15ULL + c + 1);
  }
  std::atomic<std::size_t> sent{0};
  // The load runs in segments of about kSegmentS with reference passes
  // between them (ScaledClock, at segment granularity; the median of three
  // passes, as one pass lasts only a few ms). A pass taken while the
  // clients run would time the load's own use of the core, not the host's
  // speed.
  const auto boundary_scale = [] {
    return median({host_scale(), host_scale(), host_scale()});
  };
  const std::size_t segments =
      opts.requests == 0
          ? std::max<std::size_t>(1, static_cast<std::size_t>(
                                         std::lround(opts.seconds / kSegmentS)))
          : 1;
  const double segment_s = opts.seconds / static_cast<double>(segments);
  std::vector<double> raw_blocks;
  std::vector<double> scaled_blocks;
  std::vector<double> latency;
  std::vector<double> connect;
  std::vector<double> hit_latency;
  std::vector<double> miss_latency;
  double elapsed = 0.0;
  double scale_before = boundary_scale();
  for (std::size_t seg = 0; seg < segments; ++seg) {
    std::vector<std::vector<Sample>> per_client(opts.clients);
    const auto start = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < opts.clients; ++c) {
        threads.emplace_back([&, c] {
          client_loop(opts, rngs[c], start, segment_s, sent, per_client[c]);
        });
      }
    }
    elapsed += seconds_since(start);
    const double scale_after = boundary_scale();
    const double scale = 0.5 * (scale_before + scale_after);
    scale_before = scale_after;

    std::vector<double> done;
    for (const auto& samples : per_client) {
      for (const Sample& s : samples) {
        ++out.attempted;
        if (!s.ok) {
          ++out.failed;
          continue;
        }
        done.push_back(s.done_s);
        latency.push_back(s.latency_us);
        connect.push_back(s.connect_us);
        (s.hit ? hit_latency : miss_latency).push_back(s.latency_us);
      }
    }
    std::sort(done.begin(), done.end());
    for (std::size_t i = kBlockRequests; i < done.size(); i += kBlockRequests) {
      raw_blocks.push_back(done[i] - done[i - kBlockRequests]);
      scaled_blocks.push_back(raw_blocks.back() * scale);
    }
  }
  if (raw_blocks.empty()) out.fail("fewer than one block of requests completed");
  double latency_sum = 0.0;
  for (const double l : latency) latency_sum += l;

  // Scaled for host speed like the other workloads' calls (ScaledClock).
  out.metric("wall_s", median(scaled_blocks));
  out.note("raw_wall_s", median(raw_blocks));
  out.note("plan_rps", static_cast<double>(latency.size()) / elapsed);
  out.note("plan_p50_us", quantile(latency, 0.50));
  out.note("plan_p99_us", quantile(latency, 0.99));
  out.note("plan_mean_us",
           latency.empty() ? 0.0 : latency_sum / latency.size());
  out.note("samples", static_cast<double>(latency.size()));
  out.note("misses", static_cast<double>(miss_latency.size()));
  if (opts.trace) {
    out.note("connect_p50_us", quantile(connect, 0.50));
    out.note("hit_p50_us", quantile(hit_latency, 0.50));
    out.note("miss_p50_us", quantile(miss_latency, 0.50));
  }
  return out;
}

}  // namespace perfbench
