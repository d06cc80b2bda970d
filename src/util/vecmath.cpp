#include "msropm/util/vecmath.hpp"

// The AVX2 bodies are gated behind a target attribute plus a runtime CPU
// check so the library still runs on baseline x86-64. MSROPM_HAVE_LIBMVEC is
// only defined when CMake found libmvec to link against (it ships with
// glibc -- no new dependency). This file is the only place the libmvec ABI
// is declared.
#if defined(MSROPM_HAVE_LIBMVEC) && defined(__x86_64__) && \
    defined(__GLIBC__) && defined(__GNUC__)
#define MSROPM_VECMATH_MVEC 1
#include <immintrin.h>

extern "C" {
// x86-64 vector-math ABI names for the AVX2 (ymm, 4-lane double) variants.
__m256d _ZGVdN4v_sin(__m256d);
__m256d _ZGVdN4v_cos(__m256d);
__m256d _ZGVdN4v_log(__m256d);
}
#endif

namespace msropm::util::detail {

namespace {

void sincos_scalar(const double* x, double* s, double* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
#if defined(__GLIBC__)
    // One fused argument reduction for both outputs.
    ::sincos(x[i], &s[i], &c[i]);
#else
    s[i] = std::sin(x[i]);
    c[i] = std::cos(x[i]);
#endif
  }
}

void box_muller_scalar(const double* u1, const double* u2, double* out,
                       std::size_t pairs) {
  for (std::size_t p = 0; p < pairs; ++p) {
    box_muller_pair(u1[p], u2[p], out[2 * p], out[2 * p + 1]);
  }
}

#if defined(MSROPM_VECMATH_MVEC)
bool use_avx2() {
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
}

[[gnu::target("avx2")]] void sincos_avx2(const double* x, double* s,
                                         double* c, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x4 = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(s + i, _ZGVdN4v_sin(x4));
    _mm256_storeu_pd(c + i, _ZGVdN4v_cos(x4));
  }
  sincos_scalar(x + i, s + i, c + i, n - i);
}

[[gnu::target("avx2")]] void box_muller_avx2(const double* u1,
                                             const double* u2, double* out,
                                             std::size_t pairs) {
  // Same operations, in the same order, as box_muller_pair; sqrt and the
  // multiplies are correctly rounded, so only log/sin/cos differ (<= 4 ulp).
  const __m256d minus_two = _mm256_set1_pd(-2.0);
  const __m256d two_pi = _mm256_set1_pd(2.0 * std::numbers::pi);
  std::size_t p = 0;
  for (; p + 4 <= pairs; p += 4) {
    const __m256d r = _mm256_sqrt_pd(
        _mm256_mul_pd(minus_two, _ZGVdN4v_log(_mm256_loadu_pd(u1 + p))));
    const __m256d angle = _mm256_mul_pd(two_pi, _mm256_loadu_pd(u2 + p));
    const __m256d zc = _mm256_mul_pd(r, _ZGVdN4v_cos(angle));
    const __m256d zs = _mm256_mul_pd(r, _ZGVdN4v_sin(angle));
    // Interleave to (c0 s0 c1 s1)(c2 s2 c3 s3): the scalar pair order.
    const __m256d lo = _mm256_unpacklo_pd(zc, zs);  // c0 s0 c2 s2
    const __m256d hi = _mm256_unpackhi_pd(zc, zs);  // c1 s1 c3 s3
    _mm256_storeu_pd(out + 2 * p, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 2 * p + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  box_muller_scalar(u1 + p, u2 + p, out + 2 * p, pairs - p);
}
#endif

}  // namespace

void sincos_array(const double* x, double* s, double* c, std::size_t n) noexcept {
#if defined(MSROPM_VECMATH_MVEC)
  if (use_avx2()) {
    sincos_avx2(x, s, c, n);
    return;
  }
#endif
  sincos_scalar(x, s, c, n);
}

void box_muller_array(const double* u1, const double* u2, double* out,
                      std::size_t pairs) noexcept {
#if defined(MSROPM_VECMATH_MVEC)
  if (use_avx2()) {
    box_muller_avx2(u1, u2, out, pairs);
    return;
  }
#endif
  box_muller_scalar(u1, u2, out, pairs);
}

}  // namespace msropm::util::detail
