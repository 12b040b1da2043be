//===- support/CpuFeatures.cpp - Runtime ISA feature probe -------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CpuFeatures.h"

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace marqsim;

namespace {

#if defined(__x86_64__) || defined(__i386__)

/// XGETBV(0): the XCR0 state-component bitmap. Only callable when CPUID
/// leaf 1 ECX bit 27 (OSXSAVE) is set. Emitted as raw bytes so the probe
/// compiles without -mxsave.
uint64_t readXCR0() {
  uint32_t Eax, Edx;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" // xgetbv
                   : "=a"(Eax), "=d"(Edx)
                   : "c"(0));
  return (static_cast<uint64_t>(Edx) << 32) | Eax;
}

/// SSE (1) + AVX (2) + opmask (5) + ZMM_Hi256 (6) + Hi16_ZMM (7): the
/// state components the OS must manage for 512-bit kernels to be safe.
constexpr uint64_t XCR0_AVX512_MASK = 0xE6;

#endif

CpuFeatures probe() {
  CpuFeatures F;
#if defined(__x86_64__) || defined(__i386__)
  // cpuid via the compiler's cached probe; also checks OS XSAVE support,
  // so AVX2=true means the registers are actually usable.
  F.AVX2 = __builtin_cpu_supports("avx2");
  F.FMA = __builtin_cpu_supports("fma");
  F.POPCNT = __builtin_cpu_supports("popcnt");

  // AVX-512 feature bits from a raw leaf-7 query, decoupled from the OS
  // state so --stats can report "CPU has it, OS state off" distinctly.
  unsigned Eax = 0, Ebx = 0, Ecx = 0, Edx = 0;
  if (__get_cpuid_count(7, 0, &Eax, &Ebx, &Ecx, &Edx)) {
    F.AVX512F = (Ebx & (1u << 16)) != 0;
    F.AVX512DQ = (Ebx & (1u << 17)) != 0;
  }
  Eax = Ebx = Ecx = Edx = 0;
  if (__get_cpuid(1, &Eax, &Ebx, &Ecx, &Edx) && (Ecx & (1u << 27)))
    F.AVX512OS = (readXCR0() & XCR0_AVX512_MASK) == XCR0_AVX512_MASK;
#endif
  return F;
}

} // namespace

const CpuFeatures &marqsim::cpuFeatures() {
  // Magic-static: probed exactly once, thread-safe since C++11.
  static const CpuFeatures F = probe();
  return F;
}

PopcountPath marqsim::hostPopcountPath() {
  return cpuFeatures().POPCNT ? PopcountPath::Hardware
                              : PopcountPath::Portable;
}
