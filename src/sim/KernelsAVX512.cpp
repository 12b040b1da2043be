//===- sim/KernelsAVX512.cpp - AVX-512 kernel tier ---------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// sim/KernelsSimd.h with 8-wide panels and the 4-wide walk (the walk loads
// one phase per complex; an 8-wide walk measured 2.0-2.3x slower), compiled
// with -mavx512f -mavx512dq on x86-64 (CMake); elsewhere only the null
// stub remains. Dispatch also needs the OS XSAVE state
// (CpuFeatures::AVX512OS) so ZMM registers survive context switches.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

using namespace marqsim;

#if defined(__x86_64__) && defined(__AVX512F__) && defined(__AVX512DQ__)
#include "sim/KernelsSimd.h"
#include "support/CpuFeatures.h"

constexpr kernels::Ops AVX512Ops = kernels::simd::makeOps<4, 8>("avx512");

const kernels::Ops *kernels::detail::avx512Ops() {
  const CpuFeatures &F = cpuFeatures();
  return (F.AVX512F && F.AVX512DQ && F.AVX512OS) ? &AVX512Ops : nullptr;
}
#else
const kernels::Ops *kernels::detail::avx512Ops() { return nullptr; }
#endif
