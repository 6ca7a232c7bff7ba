// Measured floating-point peak of the host.
//
// The paper reports algorithm throughput as "% of peak" where peak is
// 2 x clock (one multiply + one add per cycle on the 2006-era machines).
// Modern cores have wider SIMD and FMA units, so instead of a formula we
// *measure* an achievable peak with a register-resident multiply-add loop
// and report throughput relative to that, which preserves the meaning of
// the paper's metric.
#pragma once

namespace gep {

// Returns measured peak in GFLOP/s (double precision multiply-add) of a
// portable C burst, vectorized as the build allows: the ceiling of the
// scalar dispatch level. The vector levels time explicit ymm / zmm FMA
// bursts instead (bench::fma_peak_gflops, the "% of peak" denominator).
// Runs for roughly `seconds` wall time; result is cached after first call.
double measured_peak_gflops(double seconds = 0.25);

}  // namespace gep
