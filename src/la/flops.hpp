// Floating-point operation counts per tile kernel.
//
// Used by (a) the device timing model in src/sim — a device's kernel time is
// latency + flops / effective_rate — and (b) the google-benchmark drivers to
// report flop rates. Counts follow the standard PLASMA/LAPACK working notes
// for square b x b tiles; lower-order terms are kept where they matter for
// the small tile sizes the paper sweeps (4..28).
//
// T-factor accounting: the counts below are NOMINAL and charge the factor
// kernels (geqrt/tsqrt/ttqrt) for building the FULL upper-triangular
// compact-WY factor Tf, whatever inner block size `ib` they ran with. ttqrt
// still builds the full Tf; geqrt and tsqrt build only its ib x ib diagonal
// blocks (PLASMA-style inner blocking, T work O(b^2 ib)), so their real flop
// count is lower and a rate computed from these counts — the host
// kernels_gbench geqrt/tsqrt rows, la.{geqrt,tsqrt}.gflops — is an effective
// rate: compare seconds per call (sec_per_call, busy_ms) across versions,
// not GFLOP/s. The counts stay fixed so rates recorded before and after the
// change stay on one scale (the sim/ device model keeps its own classical
// factor proxies; see sim/device.cpp). `ib` is accepted so call sites
// record the configuration they measured. Derivation per b x b tile,
// reflector k = 0..b-1:
//   cross products V(:,0:k)^T v_k   geqrt 2k(b-k) -> b^3/3
//                                   tsqrt 2kb     -> b^3
//                                   ttqrt ~k^2    -> b^3/3
//   triangular T update Tf z        ~k^2          -> b^3/3  (all three)
#pragma once

#include <cstdint>

#include "la/matrix.hpp"

namespace tqr::la {

/// GEQRT on a b x b tile, nominally charged for the full T build (above).
inline double flops_geqrt(index_t b, index_t /*ib*/ = 0) {
  const double n = b;
  // Factorization 4/3 n^3 + full-T build (cross dots n^3/3 + triangular
  // accumulation n^3/3).
  return (4.0 / 3.0) * n * n * n + (2.0 / 3.0) * n * n * n;
}

/// UNMQR applying a b-reflector Q to a b x b tile.
inline double flops_unmqr(index_t b) {
  const double n = b;
  // W = V^T C (n^3), W = T W (n^3/2... triangular: n^2*n/2), C -= V W (n^3),
  // each multiply-add pair counted as 2 flops.
  return 2.0 * n * n * n + n * n * n + 2.0 * n * n * n;
}

/// TSQRT of [R1; A2] with b x b tiles (dense V2).
inline double flops_tsqrt(index_t b, index_t /*ib*/ = 0) {
  const double n = b;
  // Trailing update 4n(n-k) -> 2n^3, cross dots 2kn -> n^3, triangular T
  // accumulation -> n^3/3.
  return 2.0 * n * n * n + n * n * n + (1.0 / 3.0) * n * n * n;
}

/// TSMQR applying a TS Q to a b x b tile pair.
inline double flops_tsmqr(index_t b) {
  const double n = b;
  // V2^T C2 (2n^3) + T W (n^3) + C2 -= V2 W (2n^3) + C1 ops (2n^2).
  return 5.0 * n * n * n;
}

/// TTQRT of [R1; R2] with both triangular (V2 triangular: half the work).
inline double flops_ttqrt(index_t b, index_t /*ib*/ = 0) {
  const double n = b;
  // Trailing update over triangular support -> 2n^3/3, cross dots -> n^3/3,
  // triangular T accumulation -> n^3/3.
  return (2.0 / 3.0) * n * n * n + (2.0 / 3.0) * n * n * n;
}

/// TTMQR applying a TT Q (triangular V2) to a tile pair.
inline double flops_ttmqr(index_t b) {
  const double n = b;
  return 3.0 * n * n * n;
}

/// Whole-factorization count for an m x n matrix (untiled Householder),
/// the classical 2mn^2 - 2n^3/3.
inline double flops_qr(index_t m, index_t n) {
  const double dm = m, dn = n;
  return 2.0 * dm * dn * dn - (2.0 / 3.0) * dn * dn * dn;
}

}  // namespace tqr::la
