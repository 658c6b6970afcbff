// Deterministic pseudo-random number generation. Every stochastic element in
// the simulator (measurement jitter, random search, GP noise) draws from an
// explicitly-seeded Rng so experiments regenerate bit-identically.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>

namespace bsched {

// xoshiro256** — small, fast, high-quality, and fully reproducible across
// platforms (unlike std::mt19937's distribution implementations).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  uint64_t NextU64();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Standard normal via Box-Muller.
  double NextGaussian();

 private:
  uint64_t s_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace bsched

#endif  // SRC_COMMON_RNG_H_
