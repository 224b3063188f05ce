#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the repository benchmark: the seeded input
// generators, latency samples and the result every workload returns.
// Inputs come only from the seed, never from engine code, so a change to
// the engine cannot change what the benchmark feeds it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Uniform01() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

inline uint64_t Mix(uint64_t a, uint64_t b) {
  return Rng(a * 0x9e3779b97f4a7c15ull ^ b).Next();
}

constexpr size_t kKeySize = 16;

/// 16-byte keys whose byte order is the numeric order of `id`.
inline std::string KeyOf(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(id % 10000000000000000ull));
  return std::string(buf, kKeySize);
}

/// The value of version `version` of key `id`: `len` printable bytes
/// that only the seed, the key and the version determine.
inline void ValueOf(uint64_t seed, uint64_t id, uint64_t version, size_t len,
                    std::string* out) {
  static const char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
  out->resize(len);
  Rng rng(Mix(Mix(seed, id), version));
  uint64_t bits = 0;
  int left = 0;
  for (size_t i = 0; i < len; i++) {
    if (left == 0) {
      bits = rng.Next();
      left = 10;
    }
    (*out)[i] = kAlphabet[bits & 63];
    bits >>= 6;
    left--;
  }
}

/// YCSB's zipfian generator over ranks [0, n): rank 0 is the hottest.
class Zipfian {
 public:
  Zipfian(uint64_t n, double theta) : n_(n), theta_(theta) {
    zetan_ = Zeta(n, theta);
    const double zeta2 = Zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Rng* rng) const {
    const double u = rng->Uniform01();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const uint64_t rank = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(rank, n_ - 1);
  }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; i++) sum += 1.0 / std::pow(i, theta);
    return sum;
  }

  uint64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

/// Latency samples in microseconds. Keeps a fixed-size uniform sample
/// of everything added (reservoir sampling with a fixed seed), so the
/// benchmark's own memory does not grow with the engine's speed.
class Samples {
 public:
  static constexpr size_t kCapacity = 100000;

  void Add(double micros) {
    if (values_.size() < kCapacity) {
      values_.push_back(micros);
    } else {
      const uint64_t slot = rng_.Uniform(count_ + 1);
      if (slot < kCapacity) values_[slot] = micros;
    }
    count_++;
  }

  /// Samples added, kept or not.
  uint64_t size() const { return count_; }

  /// Percentile of the kept samples, interpolated linearly between the
  /// two nearest ranks (so the p50 of 8 values is the mean of the 4th and
  /// 5th); 0 when empty.
  double Percentile(double p) const {
    if (values_.empty()) return 0;
    std::vector<double> v(values_);
    const double pos =
        std::clamp(p / 100.0, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    std::nth_element(v.begin(), v.begin() + lo, v.end());
    if (lo + 1 == v.size()) return v[lo];
    const double next = *std::min_element(v.begin() + lo + 1, v.end());
    return v[lo] + (pos - static_cast<double>(lo)) * (next - v[lo]);
  }

 private:
  std::vector<double> values_;
  uint64_t count_ = 0;
  Rng rng_{0x5eed};
};

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Length of the windows fill and read_mostly take medians over.
constexpr uint64_t kWindowNs = 1000000000;

/// Splits a run into consecutive windows and reports medians over them,
/// so a burst of noise from other processes on the host moves one
/// window instead of the result.
class Windows {
 public:
  /// With `window_ns` > 0 a window closes once it has lasted that long;
  /// with 0 the caller closes each window.
  explicit Windows(uint64_t start_ns = 0, uint64_t window_ns = 0)
      : start_ns_(start_ns), window_ns_(window_ns) {}

  /// Records one completed unit of work that ended at `now_ns`.
  void Add(uint64_t now_ns, double latency_us, uint64_t bytes) {
    latency_.Add(latency_us);
    bytes_ += bytes;
    if (window_ns_ > 0 && now_ns - start_ns_ >= window_ns_) {
      Close((now_ns - start_ns_) / 1e9);
      start_ns_ = now_ns;
    }
  }

  /// Closes a trailing timed window if it lasted at least half a window.
  void Finish(uint64_t now_ns) {
    if (window_ns_ > 0 && now_ns - start_ns_ >= window_ns_ / 2) {
      Close((now_ns - start_ns_) / 1e9);
    }
  }

  /// Ends the current window, which lasted `seconds`.
  void Close(double seconds) {
    if (latency_.size() > 0 && seconds > 0) {
      mb_per_s_.push_back(bytes_ / 1e6 / seconds);
      p50_us_.push_back(latency_.Percentile(50));
      p99_us_.push_back(latency_.Percentile(99));
    }
    latency_ = Samples();
    bytes_ = 0;
  }

  double MBPerSecond() const { return Median(mb_per_s_); }
  double P50() const { return Median(p50_us_); }
  double P99() const { return Median(p99_us_); }

 private:
  uint64_t start_ns_;
  const uint64_t window_ns_;
  Samples latency_;
  uint64_t bytes_ = 0;
  std::vector<double> mb_per_s_, p50_us_, p99_us_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one pass of a workload measured and checked.
struct Result {
  uint64_t attempted = 0;  // Operations and checks attempted.
  uint64_t failed = 0;     // Failed or wrong, counted against `attempted`.
  std::vector<Metric> end_to_end;  // The gated metrics (BENCHMARK.json).
  std::vector<Metric> report;      // Printed, not gated.
  std::vector<Metric> per_layer;   // Filled by the traced pass only.

  bool correct() const { return attempted > 0 && failed == 0; }

  void Check(bool ok) {
    attempted++;
    if (!ok) failed++;
  }
};

/// Adds `<prefix>_p50_us` and `<prefix>_p99_us` with their sample count.
inline void ReportLatency(const std::string& prefix, const Samples& samples,
                          Result* result) {
  const std::string n = "(n=" + std::to_string(samples.size()) + ")";
  result->report.push_back({prefix + "_p50_us", "us " + n,
                            samples.Percentile(50)});
  result->report.push_back({prefix + "_p99_us", "us " + n,
                            samples.Percentile(99)});
}

/// Peak resident set of this process, in MB (2^20 bytes).
double PeakRssMb();

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Result RunFill(const RunConfig& config);
Result RunReadMostly(const RunConfig& config);
Result RunOffloadPipeline(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
