//===- bench/BenchCommon.h - Shared experiment harness ----------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the table/figure harnesses: the paper's three
/// experimental configurations (Section 6.1), epsilon sweeps with repeated
/// randomized compilation, fidelity evaluation, and reduction summaries.
///
/// Every sweep harness accepts (CommonFlags; every harness rejects a flag
/// it does not read through CommandLine::rejectUnknown):
///   --paper         full-scale parameters (paper epsilon list, 20 reps,
///                   100 perturbation rounds)
///   --reps=K        repetitions (shots) per epsilon
///   --jobs=J        worker threads for batch compilation (results are
///                   bit-identical for every J)
///   --seed=S        base RNG seed
///
/// Sweeps run through a shared SimulationService: each (config, epsilon)
/// cell is one declarative TaskSpec, and the service's content-hash caches
/// guarantee one gate-cancellation MCFP solve per (Hamiltonian, flow
/// options) across the whole sweep — every other cell reuses it. Fidelity
/// (SweepOptions::FidelityColumns > 0) is evaluated per shot inside the
/// batch workers, so --jobs covers it too.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_BENCH_BENCHCOMMON_H
#define MARQSIM_BENCH_BENCHCOMMON_H

#include "service/SimulationService.h"
#include "support/CommandLine.h"
#include "support/Table.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace marqsim {

/// One experimental configuration: a named convex combination of
/// Pqd / Pgc / Prp (paper Section 6.1).
struct ConfigSpec {
  std::string Name;
  ChannelMix Mix;
};

/// The paper's three configurations: Baseline (qDrift + cancellation),
/// MarQSim-GC (0.4/0.6), MarQSim-GC-RP (0.4/0.3/0.3).
std::vector<ConfigSpec> paperConfigs();

/// Sweep parameters shared by the figure harnesses.
struct SweepOptions {
  /// Target precisions; each maps to N = ceil(2 lambda^2 t^2 / eps).
  std::vector<double> Epsilons = {0.1, 0.067, 0.05, 0.04};
  /// Repeated compilations per epsilon (compilation is randomized).
  unsigned Reps = 3;
  /// Perturbation rounds for Prp (paper: 100).
  unsigned PerturbRounds = 8;
  /// Base seed; each (epsilon, shot) pair derives its own substream via
  /// RNG::forShot.
  uint64_t Seed = 1;
  /// Columns for fidelity estimation; 0 disables fidelity entirely.
  size_t FidelityColumns = 0;
  /// Worker threads per batch (0 = all hardware threads). Results are
  /// bit-identical regardless of the value.
  unsigned Jobs = 1;
};

/// Aggregated measurements at one epsilon.
struct SweepPoint {
  double Epsilon = 0.0;
  size_t NumSamples = 0;
  double MeanCNOTs = 0.0;
  double StdCNOTs = 0.0;
  double MeanSingles = 0.0;
  double MeanTotal = 0.0;
  double MeanFidelity = 0.0;
  double StdFidelity = 0.0;
  bool HasFidelity = false;
};

/// The series of one configuration over the epsilon sweep.
struct SweepResult {
  ConfigSpec Config;
  std::vector<SweepPoint> Points;
};

/// Builds the TaskSpec of one (config, epsilon) sweep cell; the shared
/// knobs (rounds, perturbation seed, shots, jobs, fidelity) come from
/// \p Opts. Exposed so harnesses can derive one-off cells (spectra, DOT)
/// that still hit the same cache entries as the sweep.
TaskSpec sweepTaskSpec(const Hamiltonian &H, double T,
                       const ConfigSpec &Config, const SweepOptions &Opts,
                       double Epsilon, size_t EpsilonIndex);

/// Runs the sweep for one configuration of \p H at evolution time \p T
/// through \p Service. Fidelity is evaluated (in-worker) when
/// Opts.FidelityColumns > 0.
SweepResult runConfigSweep(SimulationService &Service, const Hamiltonian &H,
                           double T, const ConfigSpec &Config,
                           const SweepOptions &Opts);

/// Gate reductions of \p Opt relative to \p Base, averaged over matched
/// epsilon points (identical N by construction).
struct ReductionSummary {
  double CNOT = 0.0;
  double Single = 0.0;
  double Total = 0.0;
};
ReductionSummary averageReduction(const SweepResult &Base,
                                  const SweepResult &Opt);

/// Prints one benchmark's sweep series as an aligned table.
void printSweepTable(std::ostream &OS, const std::string &Title,
                     const std::vector<SweepResult> &Results);

/// Prints the service's cumulative cache accounting (one line).
void printCacheStats(std::ostream &OS, const SimulationService &Service);

/// Applies --paper / --reps / --seed / --eps (comma list) / --rounds /
/// --jobs to \p Opts.
void applyCommonFlags(const CommandLine &CL, SweepOptions &Opts);

/// The flags applyCommonFlags reads; a sweep harness accepts them next to
/// its own: CL.rejectUnknown({...its own...}, CommonFlags).
extern const std::vector<std::string> CommonFlags;

} // namespace marqsim

#endif // MARQSIM_BENCH_BENCHCOMMON_H
