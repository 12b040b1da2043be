//===- sim/KernelsNEON.cpp - NEON kernel tier --------------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// sim/KernelsSimd.h with 2-wide panels. AdvSIMD is
// baseline on AArch64, so no per-file flags are needed; elsewhere only the
// null stub remains. KernelTest runs the same width on every host.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

using namespace marqsim;

#if defined(__aarch64__)
#include "sim/KernelsSimd.h"
#include "support/CpuFeatures.h"

constexpr kernels::Ops NEONOps = kernels::simd::makeOps<2>("neon");

const kernels::Ops *kernels::detail::neonOps() {
  return cpuFeatures().NEON ? &NEONOps : nullptr;
}
#else
const kernels::Ops *kernels::detail::neonOps() { return nullptr; }
#endif
