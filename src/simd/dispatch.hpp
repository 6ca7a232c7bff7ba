// Runtime SIMD dispatch for the base-case kernels.
//
// Every leaf kernel in gep/kernels.hpp consults active() once per call
// and routes to either the explicit AVX2/FMA implementation
// (simd/kernels_avx2.cpp, compiled with `target` function attributes so
// the build works without -march flags) or the portable scalar
// template. Selection order:
//
//   1. $GEP_FORCE_SCALAR=1   -> Scalar, always (CI fallback leg, benches)
//   2. force_level(l)        -> l, clamped to what the host can run
//                               (in-process test/bench hook)
//   3. CPUID + XCR0          -> Avx2 iff AVX2 + FMA + OS ymm state;
//                               Avx512 iff that plus AVX-512F + OS zmm
//                               state
//
// Levels are ordered: every kernel that runs at Avx2 also runs at
// Avx512, so callers test `>= Level::Avx2`. Only the packed-GEMM
// register tile depends on the level (simd::with_gemm_kernel): 6 x 8
// doubles at Avx2, 8 x 16 at Avx512. On a 4-vCPU AVX-512 Xeon a
// register-only FMA loop reaches ~40-47 GF/s per core with ymm and
// ~76-84 GF/s with zmm, so 512-bit FMA doubles the ceiling there rather
// than losing it to frequency reduction: one-thread typed LU at n = 2048
// takes 0.33 s with the 6 x 8 tile and 0.23 s with the 8 x 16 one
// (docs/KERNELS.md).
#pragma once

// True when this build can contain the AVX2 kernel translation unit
// (x86-64 with a compiler that supports target attributes). On other
// hosts active() is constant Scalar and the wrappers compile straight
// through to the scalar templates.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GEP_SIMD_X86 1
#else
#define GEP_SIMD_X86 0
#endif

// The target attributes of the AVX2 and AVX-512 code. A function
// template must carry its attribute on every declaration: GCC drops one
// that appears only on the definition.
#define GEP_AVX2_FN __attribute__((target("avx2,fma")))
#define GEP_AVX512_FN __attribute__((target("avx2,fma,avx512f")))

namespace gep::simd {

enum class Level { Scalar = 0, Avx2 = 1, Avx512 = 2 };

// The level leaf kernels dispatch to right now (env > forced > CPUID).
Level active();

// True when the host can execute the AVX2/FMA (resp. AVX-512F) kernels
// at all, independent of $GEP_FORCE_SCALAR and force_level overrides.
bool avx2_available();
bool avx512_available();

// True when $GEP_FORCE_SCALAR=1 pinned the process to the scalar path.
bool forced_scalar_env();

// In-process override for tests and benches (measuring every path in
// one binary). Clamped to the detected level: forcing Avx512 on an
// AVX2-only host leaves Avx2 active, forcing Avx2 on a host without
// AVX2+FMA leaves Scalar active. $GEP_FORCE_SCALAR=1 still wins. clear_forced_level()
// returns to CPUID-based selection.
void force_level(Level l);
void clear_forced_level();

const char* level_name(Level l);
inline const char* active_name() { return level_name(active()); }

// Bumps obs counter kernels.dispatch.{avx512,avx2,scalar} — one tick per
// leaf kernel invocation, so traces and BENCH JSON show which path ran.
void note_leaf(Level l);

}  // namespace gep::simd
