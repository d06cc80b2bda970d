#include "msropm/util/rng.hpp"

#include <algorithm>
#include <numbers>

#include "msropm/util/vecmath.hpp"

namespace msropm::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start in the all-zero state; splitmix64 of any seed
  // cannot produce four zero words, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random bits into the mantissa: uniform on [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  double z = 0.0;
  detail::box_muller_pair(u1, u2, z, cached_normal_);
  has_cached_normal_ = true;
  return z;
}

void Rng::fill_normal(std::span<double> out, std::span<double> scratch) noexcept {
  const std::size_t n = out.size();
  std::size_t i = 0;
  if (has_cached_normal_ && n > 0) {
    out[i++] = cached_normal_;
    has_cached_normal_ = false;
  }
  const std::size_t max_pairs = scratch.size() / 2;
  while (i < n) {
    if (max_pairs == 0) {  // no room for a pair: the scalar path
      out[i++] = normal();
      continue;
    }
    // Draw this chunk's uniform pairs in normal()'s order: u1 (rejecting
    // 0) then u2, pair after pair. The last pair of an odd count yields
    // one value for `out` and one for the cache.
    const std::size_t pairs = std::min((n - i + 1) / 2, max_pairs);
    double* u1 = scratch.data();
    double* u2 = u1 + pairs;
    for (std::size_t p = 0; p < pairs; ++p) {
      do {
        u1[p] = uniform();
      } while (u1[p] <= 0.0);
      u2[p] = uniform();
    }
    const std::size_t whole = std::min(pairs, (n - i) / 2);
    detail::box_muller_array(u1, u2, out.data() + i, whole);
    i += 2 * whole;
    if (whole < pairs) {
      detail::box_muller_pair(u1[whole], u2[whole], out[i++], cached_normal_);
      has_cached_normal_ = true;
    }
  }
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::uniform_phase() noexcept {
  return uniform() * 2.0 * std::numbers::pi;
}

Rng Rng::split() noexcept {
  return Rng{(*this)() ^ 0xd1b54a32d192ed03ull};
}

Rng Rng::split(std::uint64_t stream_id) const noexcept {
  // Hash (state, stream_id) down to a child seed through three splitmix64
  // steps; the Rng constructor re-expands it into a full 256-bit state. The
  // parent is untouched, so stream derivation commutes with parent draws.
  std::uint64_t x = stream_id + 0x9e3779b97f4a7c15ull;
  std::uint64_t h = splitmix64(x);
  x = h ^ s_[0] ^ rotl(s_[1], 17);
  h = splitmix64(x);
  x = h ^ s_[2] ^ rotl(s_[3], 29);
  h = splitmix64(x);
  return Rng{h};
}

}  // namespace msropm::util
