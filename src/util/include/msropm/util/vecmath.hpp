#pragma once
// Internal bulk math kernels shared by util::Rng (block normal draws) and
// phase::PhaseBatch (per-step sin/cos refresh). Not a general-purpose API:
// callers pass raw arrays and own every buffer.
//
// On x86-64 glibc hosts with AVX2 the kernels run 4 lanes at a time through
// libmvec (glibc's vector math library), chosen by a runtime CPU check that
// is fixed for the lifetime of the process; elsewhere they run the scalar
// loops below. libmvec's sin/cos/log are within 4 ulp of the correctly
// rounded result, so the vector and scalar paths are NOT bit-identical to
// each other -- but on one host every caller goes through the same dispatch,
// so a given input always maps to the same output. Tail lanes (n mod 4) use
// the scalar kernel; the split is a pure function of n.

#include <cmath>
#include <cstddef>
#include <numbers>

namespace msropm::util::detail {

/// s[i] = sin(x[i]), c[i] = cos(x[i]) for i in [0, n).
void sincos_array(const double* x, double* s, double* c, std::size_t n) noexcept;

/// Box-Muller over `pairs` uniform pairs: with r = sqrt(-2 log u1[p]) and
/// a = 2 pi u2[p], out[2p] = r cos(a) and out[2p+1] = r sin(a). Requires
/// u1[p] in (0, 1]. `out` holds 2 * pairs doubles and aliases neither input.
void box_muller_array(const double* u1, const double* u2, double* out,
                      std::size_t pairs) noexcept;

/// The scalar Box-Muller transform of one pair -- the reference every path
/// must match: Rng::normal() and the scalar fallback of box_muller_array
/// both evaluate exactly these expressions.
inline void box_muller_pair(double u1, double u2, double& z_cos,
                            double& z_sin) noexcept {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  z_cos = r * std::cos(angle);
  z_sin = r * std::sin(angle);
}

}  // namespace msropm::util::detail
