//===- sim/KernelsAVX2.cpp - AVX2 kernel tier --------------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// sim/KernelsSimd.h with 4-wide panels, compiled with
// -mavx2 -mfma on x86-64 (CMake); elsewhere only the null stub remains.
// The FMA bit stays in the dispatch gate so the tier name pins the
// microarchitecture class benchmarks report.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

using namespace marqsim;

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)
#include "sim/KernelsSimd.h"
#include "support/CpuFeatures.h"

constexpr kernels::Ops AVX2Ops = kernels::simd::makeOps<4>("avx2-fma");

const kernels::Ops *kernels::detail::avx2Ops() {
  const CpuFeatures &F = cpuFeatures();
  return (F.AVX2 && F.FMA) ? &AVX2Ops : nullptr;
}
#else
const kernels::Ops *kernels::detail::avx2Ops() { return nullptr; }
#endif
