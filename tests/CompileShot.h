//===- tests/CompileShot.h - One shot on a test's own RNG -------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Materializes one shot of a ScheduleStrategy on the caller's RNG.
///
/// CompilerEngine::compileOne draws shot 0 from RNG::forShot(Seed, 0). The
/// statistical thresholds of the randomized-compiler tests were set on the
/// sequences a plain RNG(Seed) draws, so those tests compile through here
/// and keep drawing exactly those sequences.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_TESTS_COMPILESHOT_H
#define MARQSIM_TESTS_COMPILESHOT_H

#include "core/CompilerEngine.h"

namespace marqsim {

inline CompilationResult compileShot(const ScheduleStrategy &S, RNG &Rng,
                                     const CompilationOptions &Opts = {}) {
  ShotContext Ctx{0, Rng};
  return materializePlan(S.hamiltonian(), S.produce(Ctx), Opts);
}

} // namespace marqsim

#endif // MARQSIM_TESTS_COMPILESHOT_H
