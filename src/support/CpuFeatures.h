//===- support/CpuFeatures.h - Runtime ISA feature probe --------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A one-shot runtime probe of the SIMD capabilities of the host CPU, used
/// by the evaluation-kernel dispatcher (sim/Kernels.h) to pick the widest
/// implementation the hardware supports, and of POPCNT, used by the
/// emitter's count pass and the CNOT cost table (PopcountPath).
///
/// On x86-64 the probe goes through cpuid (__builtin_cpu_supports plus a
/// raw leaf-7 query for the AVX-512 bits) and through XGETBV for the OS
/// XSAVE state: AVX-512 dispatch requires not just the CPUID feature bits
/// but an OS that saves/restores the ZMM and opmask register state, so
/// both are probed and reported separately. On AArch64 the probe reads the
/// HWCAP auxiliary vector. The result is immutable after the first call —
/// dispatch decisions made from it are stable for the lifetime of the
/// process.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SUPPORT_CPUFEATURES_H
#define MARQSIM_SUPPORT_CPUFEATURES_H

namespace marqsim {

/// The ISA extensions the kernel layer can dispatch on.
struct CpuFeatures {
  /// x86-64 AVX2 (256-bit integer + FP vectors).
  bool AVX2 = false;

  /// x86-64 FMA3. Dispatch requires AVX2 *and* FMA — the pair is what the
  /// "avx2-fma" kernel tier is compiled for — even though the kernels
  /// never emit fused multiply-adds in value-producing arithmetic (FMA
  /// contraction would change rounding and break the bit-identity
  /// contract with the scalar reference).
  bool FMA = false;

  /// x86-64 AVX-512 Foundation (CPUID leaf 7 EBX bit 16): 512-bit FP
  /// vectors and opmask registers.
  bool AVX512F = false;

  /// x86-64 AVX-512DQ (CPUID leaf 7 EBX bit 17). The "avx512" tier is
  /// compiled with -mavx512f -mavx512dq and dispatch requires both bits.
  bool AVX512DQ = false;

  /// True when the OS has enabled the full AVX-512 register state: CPUID
  /// leaf 1 ECX bit 27 (OSXSAVE) set and XGETBV(XCR0) reporting the SSE,
  /// AVX, opmask, ZMM_Hi256, and Hi16_ZMM state components (mask 0xE6)
  /// all enabled. Without this the ZMM registers are not preserved across
  /// context switches and the avx512 tier must not be selected even when
  /// the CPUID feature bits are present.
  bool AVX512OS = false;

  /// AArch64 Advanced SIMD (NEON with 2-lane double support).
  bool NEON = false;

  /// x86-64 POPCNT (CPUID leaf 1 ECX bit 23). Not part of the x86-64
  /// baseline the library builds for; the emitter's count pass and the
  /// CNOT cost table run clones compiled for it when this is set
  /// (PopcountPath).
  bool POPCNT = false;
};

/// The host CPU's features, probed once on first use (thread-safe).
const CpuFeatures &cpuFeatures();

/// The population count a popcount-heavy loop runs on. Hardware is a clone
/// of the loop compiled with MARQSIM_TARGET_POPCNT, which inlines
/// __builtin_popcountll as the x86-64 POPCNT instruction, and needs
/// CpuFeatures::POPCNT. Portable is the baseline build.
enum class PopcountPath { Portable, Hardware };

/// Hardware when the host has POPCNT, else Portable.
PopcountPath hostPopcountPath();

} // namespace marqsim

/// Marks the Hardware clone of a PopcountPath loop.
#if defined(__x86_64__) || defined(__i386__)
#define MARQSIM_TARGET_POPCNT __attribute__((target("popcnt")))
#else
#define MARQSIM_TARGET_POPCNT
#endif

namespace marqsim {

} // namespace marqsim

#endif // MARQSIM_SUPPORT_CPUFEATURES_H
