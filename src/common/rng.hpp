#pragma once
// Deterministic random number generation.
//
// Every stochastic component takes an explicit Rng (or a seed) so that tests
// and benchmarks are reproducible. There is deliberately no global generator.
//
// Threading rules (DESIGN.md §10): an Rng is single-owner, single-thread
// state. It is move-only — copying a generator silently *shares* its future
// draw sequence between two owners, which is exactly the bug that breaks
// determinism the first time the copies land on different threads. Parallel
// work derives independent per-task generators with fork(stream_id), which
// depends only on (root seed, stream id) — never on how many draws the
// parent has made — so results cannot depend on worker interleaving.

#include <cstdint>
#include <random>

#include "common/check.hpp"

namespace w11 {

namespace rng_detail {

// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation used to
// derive child seeds. Constexpr so seed derivation is a pure function.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Child seed for (root seed, stream id): Rng::fork(stream_id) seeds its
// child with mix_seed(seed(), stream_id).
constexpr std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(seed ^ splitmix64(stream ^ 0xa076'1d64'78bd'642fULL));
}

// The first output of std::mt19937_64 seeded with `seed`, without building
// its 312-word state. The first twist writes word 0 from words 0, 1 and
// 156 (shift_size), and seeding derives word i from word i - 1, so 156
// seeding steps, one twist step and the tempering give the same value.
constexpr std::uint64_t mt19937_64_first_output(std::uint64_t seed) {
  using E = std::mt19937_64;
  std::uint64_t x = seed;
  std::uint64_t x1 = 0;
  for (std::uint64_t i = 1; i <= E::shift_size; ++i) {
    x = E::initialization_multiplier * (x ^ (x >> (E::word_size - 2))) + i;
    if (i == 1) x1 = x;
  }
  const std::uint64_t upper = ~std::uint64_t{0} << E::mask_bits;
  const std::uint64_t y = (seed & upper) | (x1 & ~upper);
  std::uint64_t z = x ^ (y >> 1) ^ ((y & 1) != 0 ? E::xor_mask : 0);
  z ^= (z >> E::tempering_u) & E::tempering_d;
  z ^= (z << E::tempering_s) & E::tempering_b;
  z ^= (z << E::tempering_t) & E::tempering_c;
  return z ^ (z >> E::tempering_l);
}

// A URBG with std::mt19937_64's range that yields one given value, so a
// standard distribution consumes it exactly as it would the engine's draw.
class OneDraw {
 public:
  using result_type = std::mt19937_64::result_type;
  explicit OneDraw(result_type value) : value_(value) {}
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() {
    W11_CHECK(!drawn_);
    drawn_ = true;
    return value_;
  }

 private:
  result_type value_;
  bool drawn_ = false;
};

}  // namespace rng_detail

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  // Move-only: see the threading rules above. Pass an Rng by reference, move
  // it into its owner, or derive an independent child with fork().
  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  // Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  // Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  [[nodiscard]] bool bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  [[nodiscard]] double normal(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  [[nodiscard]] double lognormal(double mu, double sigma) {
    std::lognormal_distribution<double> d(mu, sigma);
    return d(engine_);
  }

  [[nodiscard]] double exponential(double rate) {
    std::exponential_distribution<double> d(rate);
    return d(engine_);
  }

  [[nodiscard]] std::size_t index(std::size_t size) {
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  // Weighted index selection: probability of i proportional to weights[i].
  // Zero / negative weights are treated as zero; if all weights are zero the
  // choice is uniform.
  template <class Container>
  [[nodiscard]] std::size_t weighted_index(const Container& weights) {
    double total = 0.0;
    for (double w : weights) total += (w > 0.0 ? w : 0.0);
    if (total <= 0.0) return index(weights.size());
    double pick = uniform(0.0, total);
    std::size_t i = 0;
    for (double w : weights) {
      const double ww = (w > 0.0 ? w : 0.0);
      if (pick < ww) return i;
      pick -= ww;
      ++i;
    }
    return weights.size() - 1;  // floating-point edge: return last
  }

  // Derive an independent child generator by drawing from this one. The
  // child depends on the parent's draw position — use only where the fork
  // itself is part of a single-threaded deterministic sequence (per-entity
  // streams set up at construction time).
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  // Derive the independent child generator for `stream_id`. Depends only on
  // (seed(), stream_id) — not on how many draws this generator has made —
  // so per-task streams are identical no matter when or on which worker a
  // task forks them. Distinct stream ids give decorrelated streams; the
  // same id always gives the same stream (callers own id uniqueness). It
  // reads only seed(), so pool tasks may fork one shared root concurrently.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const {
    return Rng(rng_detail::mix_seed(seed_, stream_id));
  }

  // fork(stream_id).bernoulli(p), bit for bit, without seeding the child's
  // engine: for per-entity coins where most children draw nothing else.
  [[nodiscard]] bool fork_bernoulli(std::uint64_t stream_id, double p) const {
    rng_detail::OneDraw first(rng_detail::mt19937_64_first_output(
        rng_detail::mix_seed(seed_, stream_id)));
    std::bernoulli_distribution d(p);
    return d(first);
  }

  // The seed this generator was constructed with (stable across draws).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace w11
