// Small helpers shared by the benchmark's translation units: a seeded
// generator that is independent of the program under test, exact sample
// percentiles, a stable hash for the determinism digest, and a clock.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// SplitMix64: the benchmark's own generator, so its inputs never depend
/// on a random-number helper inside the program being measured.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }
  int Range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a label.
inline uint64_t StreamSeed(uint64_t seed, std::string_view label) {
  uint64_t h = 1469598103934665603ull ^ seed;
  for (char c : label) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a accumulator for the workload digest.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (char c : bytes) Byte(static_cast<uint8_t>(c));
    Byte(0xff);  // field separator
  }
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  uint64_t h_ = 1469598103934665603ull;
};

/// Exact sample quantile (nearest rank on the sorted samples); 0 for an
/// empty sample set.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
