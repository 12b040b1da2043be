//===- bench/bench_eval_kernels.cpp - Fused evaluation kernel proof ----------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The evaluation-substrate contract, as a machine-checkable table: the
// fused in-place Pauli kernels, the StatePanel multi-column sweep, the
// EvalJobs column-chunked evaluation, the fused evolve+overlap tail, AND
// every SIMD kernel tier must all emit *byte-identical* fidelity hex to
// the textbook reference path (a faithful copy of the original two-pass
// scratch kernel replayed column by column), while being substantially
// faster.
//
// Paths timed per column count:
//   reference     — fresh state per column, two-pass scratch applyPauliExp
//                   with a PauliString::applyToBasis call per element (the
//                   pre-fusion seed path, kept here as the yardstick)
//   fused         — fresh StateVector per column: the fused single-pass
//                   scalar reference walk, which dispatches no kernel
//                   (its kernel column is always "scalar")
//   panel-<tier>  — FidelityEvaluator::fidelity with the kernel dispatch
//                   pinned to <tier>, one row per tier the host can run
//                   (always at least panel-scalar; the hex must not change
//                   across tiers)
//   panel         — the same under the dispatched tier
//   chunked       — panel with EvalJobs=4 (bit-identity under fan-out)
//
// A second table replays a sampled schedule — one shot of the gc Markov
// walk (0.4 qDrift + 0.6 gate cancellation, epsilon = 0.05) on the Table 1
// Na+ Hamiltonian at t = pi/4, where most adjacent rotations share an
// xMask — so the run-fused panel path (FidelityEvaluator's same-xMask
// runs, one pass each) is checked against the reference hex too:
//   gc-reference, gc-fused, gc-panel-<tier>, gc-panel, gc-chunked
// are the same paths on that schedule at 8 and 16 columns.
//
// A third, overlap-heavy table (16 columns, 2 rotations on the full
// layout — overlap accumulation dominates) separates the fused
// evolve+overlap tail from the unfused evolve-then-overlapWith path, per
// runnable tier:
//   reference-ov     — the scratch yardstick on the overlap-heavy shape
//   unfused-<tier>   — panel sweep of every rotation, then one strided
//                      overlapWith walk per column
//   fused-<tier>     — panel sweep of all but the last rotation, then the
//                      fused tail (rotate + streaming per-lane overlap
//                      accumulation in one kernel call)
//
// A fourth table builds the exact targets e^{iHt}|x> of OH-'s 8 columns
// (Table 1, seed 7) both ways, bit-gated with no speed gate:
//   targets-per-column    — one single-vector evolveExact per column, the
//                           construction before lane batching
//   targets-panel-<tier>  — FidelityEvaluator's constructor pinned to
//                           <tier>: the 8 columns evolve as one panel
// Every part of every target must be memcmp-equal to the per-column
// build; the hex column holds an FNV-1a digest of all target bits.
//
// Output is CSV (stdout):
//   columns,path,kernel,evolve_ms,overlap_ms,eval_ms,speedup,fidelity_hex
// where kernel is the tier that produced the row, speedup is vs the
// table's reference row, and evolve_ms/overlap_ms split eval_ms into the
// rotation sweeps vs the overlap reduction where the bench can observe
// the boundary (0 for the production-evaluator and target rows, which
// time the whole call). Exit code 1 when any path's hex differs from the
// reference, when a target part differs, or when a speedup gate fails.
//
// Speedup gates (each disabled by passing 0):
//   --min-speedup=X        panel vs reference at >= 8 columns (default 3)
//   --min-simd-speedup=X   panel vs panel-scalar at >= 8 columns (default
//                          1.5); skipped — not failed — when the
//                          dispatched tier is already scalar (no ISA, or
//                          the process runs under MARQSIM_KERNEL_TIER=scalar)
//   --min-fused-speedup=X  fused-<tier> vs unfused-<tier> on the
//                          overlap-heavy table (default 1.15), gated on
//                          the scalar tier and on the best tier the host
//                          runs; tiers the host lacks are reported as
//                          skipped, never failed
//
// --list-tiers prints the runnable tier names (best first, scalar last),
// one per line, and exits — CI uses it to build its pin matrix.
//
// Flags: --qubits=N (10) --reps=R (8 Trotter reps; ~R*terms rotations)
//        --time=T (0.9) --min-seconds=S (0.25 per timing cell)
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/CompilerEngine.h"
#include "core/TransitionBuilders.h"
#include "hamgen/Models.h"
#include "hamgen/Registry.h"
#include "sim/Evolution.h"
#include "sim/Fidelity.h"
#include "sim/Kernels.h"
#include "sim/StatePanel.h"
#include "support/Serial.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

using namespace marqsim;

namespace {

/// The pre-fusion evaluation kernel, verbatim: one scratch pass forming
/// P|psi>, one combine pass, an applyToBasis call per element. This is the
/// seed path every fused kernel must reproduce bit for bit.
void referencePauliExp(CVector &Amp, CVector &Scratch, const PauliString &P,
                       double Theta) {
  const Complex CosT(std::cos(Theta), 0.0);
  const Complex ISinT(0.0, std::sin(Theta));
  if (P.isIdentity()) {
    const Complex Phase = CosT + ISinT;
    for (Complex &A : Amp)
      A *= Phase;
    return;
  }
  const uint64_t XM = P.xMask();
  for (uint64_t X = 0; X < Amp.size(); ++X)
    Scratch[X ^ XM] = P.applyToBasis(X) * Amp[X];
  for (size_t X = 0; X < Amp.size(); ++X)
    Amp[X] = CosT * Amp[X] + ISinT * Scratch[X];
}

/// One evaluation's result plus the evolve/overlap split where the bench
/// observes the boundary (zeros where it cannot).
struct SplitEval {
  double Fidelity = 0.0;
  double EvolveSec = 0.0;
  double OverlapSec = 0.0;
};

SplitEval referenceFidelity(const FidelityEvaluator &Eval,
                            const std::vector<ScheduledRotation> &Schedule) {
  const size_t Dim = size_t(1) << Eval.numQubits();
  CVector Amp, Scratch(Dim);
  Complex Acc = 0.0;
  SplitEval R;
  for (size_t C = 0; C < Eval.numColumns(); ++C) {
    Amp.assign(Dim, Complex(0.0, 0.0));
    Amp[Eval.columns()[C]] = 1.0;
    Timer Evolve;
    for (const ScheduledRotation &Step : Schedule)
      referencePauliExp(Amp, Scratch, Step.String, Step.Tau);
    R.EvolveSec += Evolve.seconds();
    Timer Overlap;
    Acc += innerProduct(Eval.targets()[C], Amp);
    R.OverlapSec += Overlap.seconds();
  }
  R.Fidelity = std::abs(Acc) / static_cast<double>(Eval.numColumns());
  return R;
}

/// Per-column replay through StateVector's fused scalar loops (no panel).
SplitEval fusedSerialFidelity(const FidelityEvaluator &Eval,
                              const std::vector<ScheduledRotation> &Schedule) {
  Complex Acc = 0.0;
  SplitEval R;
  for (size_t C = 0; C < Eval.numColumns(); ++C) {
    StateVector SV(Eval.numQubits(), Eval.columns()[C]);
    Timer Evolve;
    for (const ScheduledRotation &Step : Schedule)
      SV.applyPauliExp(Step.String, Step.Tau);
    R.EvolveSec += Evolve.seconds();
    Timer Overlap;
    Acc += innerProduct(Eval.targets()[C], SV.amplitudes());
    R.OverlapSec += Overlap.seconds();
  }
  R.Fidelity = std::abs(Acc) / static_cast<double>(Eval.numColumns());
  return R;
}

/// Packs \p Eval's targets block by block into full-layout panels, once,
/// as the evaluator gathers them for a full-rank schedule, so the fused
/// timing below isolates the fused kernel from the gather.
std::vector<TargetPanel> packTargets(const FidelityEvaluator &Eval) {
  std::vector<TargetPanel> Packed;
  const size_t N = Eval.numColumns();
  constexpr size_t W = StatePanel::PreferredWidth;
  for (size_t Begin = 0; Begin < N; Begin += W) {
    const StatePanel Layout(Eval.numQubits(), Eval.columns().data() + Begin,
                            std::min(Begin + W, N) - Begin);
    Packed.emplace_back(Layout, Eval.targets().data() + Begin);
  }
  return Packed;
}

/// Bench-local full-layout panel evaluation with an observable
/// evolve/overlap boundary. Unfused (\p Packed == nullptr): sweep every
/// rotation, then one strided overlapWith walk per column. Fused: sweep
/// all but the last rotation, then the fused evolve+overlap tail against
/// the pre-packed targets. Both reduce overlaps in ascending column order
/// — the evaluator's chain — so the hex must match the reference path.
SplitEval panelFidelity(const FidelityEvaluator &Eval,
                        const std::vector<ScheduledRotation> &Schedule,
                        const std::vector<TargetPanel> *Packed) {
  Complex Acc = 0.0;
  SplitEval R;
  const size_t N = Eval.numColumns();
  constexpr size_t W = StatePanel::PreferredWidth;
  for (size_t Begin = 0, Block = 0; Begin < N; Begin += W, ++Block) {
    const size_t End = std::min(Begin + W, N);
    StatePanel Panel(Eval.numQubits(), Eval.columns().data() + Begin,
                     End - Begin);
    const size_t Swept = Schedule.size() - (Packed ? 1 : 0);
    Timer Evolve;
    for (size_t I = 0; I < Swept; ++I)
      Panel.applyPauliExpAll(Schedule[I].String, Schedule[I].Tau);
    R.EvolveSec += Evolve.seconds();
    Timer Overlap;
    if (Packed) {
      std::vector<Complex> Out(End - Begin);
      Panel.applyPauliExpAllFused(Schedule.back().String, Schedule.back().Tau,
                                  (*Packed)[Block], Out.data());
      for (size_t C = 0; C < End - Begin; ++C)
        Acc += Out[C];
    } else {
      for (size_t C = 0; C < End - Begin; ++C)
        Acc += Panel.overlapWith(Eval.targets()[Begin + C], C);
    }
    R.OverlapSec += Overlap.seconds();
  }
  R.Fidelity = std::abs(Acc) / static_cast<double>(N);
  return R;
}

struct Row {
  std::string Name;
  std::string Kernel;
  double EvolveMs;
  double OverlapMs;
  double Ms;
  uint64_t Bits; ///< the fidelity's bits, or a digest of target bits
};

/// Times \p Run with enough iterations to fill \p MinSeconds and appends a
/// row: total ms from the wall clock around the loop, the evolve/overlap
/// split averaged over the same iterations (the evaluation itself is
/// identical every time).
template <typename Fn>
void timeRow(std::vector<Row> &Rows, double MinSeconds, std::string Name,
             std::string Kernel, const Fn &Run) {
  SplitEval Sample = Run(); // warm-up + correctness sample
  Timer Once;
  (void)Run();
  double Single = Once.seconds();
  size_t Iters = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(MinSeconds / std::max(Single, 1e-9))));
  SplitEval Acc;
  Timer Clock;
  for (size_t I = 0; I < Iters; ++I) {
    SplitEval E = Run();
    Acc.EvolveSec += E.EvolveSec;
    Acc.OverlapSec += E.OverlapSec;
  }
  const double Scale = 1e3 / static_cast<double>(Iters);
  Rows.push_back({std::move(Name), std::move(Kernel), Acc.EvolveSec * Scale,
                  Acc.OverlapSec * Scale, Clock.seconds() * Scale,
                  serial::doubleBits(Sample.Fidelity)});
}

/// FNV-1a over the bits of every part of every target, in column order.
uint64_t targetDigest(const std::vector<CVector> &Targets) {
  uint64_t H = serial::FNVOffset;
  for (const CVector &T : Targets)
    for (const Complex &A : T)
      H = serial::fnv1aWord(serial::doubleBits(A.imag()),
                            serial::fnv1aWord(serial::doubleBits(A.real()), H));
  return H;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  if (CL.rejectUnknown({"list-tiers", "min-fused-speedup", "min-seconds",
                        "min-simd-speedup", "min-speedup", "qubits", "reps",
                        "time"}))
    return 1;
  if (CL.getBool("list-tiers")) {
    for (const kernels::Ops *O : kernels::availableOps())
      std::cout << O->Name << "\n";
    return 0;
  }
  const unsigned Qubits =
      static_cast<unsigned>(CL.getInt("qubits", 10));
  const unsigned Reps = static_cast<unsigned>(CL.getInt("reps", 8));
  const double T = CL.getDouble("time", 0.9);
  const double MinSeconds = CL.getDouble("min-seconds", 0.25);
  const double MinSpeedup = CL.getDouble("min-speedup", 3.0);
  const double MinSimdSpeedup = CL.getDouble("min-simd-speedup", 1.5);
  const double MinFusedSpeedup = CL.getDouble("min-fused-speedup", 1.15);

  // The dispatched tier for this process: MARQSIM_KERNEL_TIER pins every
  // dispatched row (including "panel"), so a pinned CI run produces a
  // table whose hex column must match the free-dispatch run's. The
  // per-tier rows pin explicitly and are immune to the environment:
  // availableOps() reflects the CPU, not the pin.
  const bool EnvScalar = kernels::tierOverrideFromEnv() == "scalar";
  const char *Dispatched = kernels::activeName();
  const std::vector<const kernels::Ops *> Tiers = kernels::availableOps();
  std::cerr << "eval-kernels: dispatch=" << Dispatched << " detected="
            << kernels::detectedName()
            << (EnvScalar ? " (MARQSIM_KERNEL_TIER=scalar)" : "") << "\n";

  // A strongly-interacting spin chain: XX/YY butterflies plus ZZ/Z
  // diagonal terms, so every kernel path is exercised.
  Hamiltonian H = makeHeisenbergXXZ(Qubits, 1.0, 0.8, 0.6, 0.3);
  std::vector<ScheduledRotation> Schedule;
  for (unsigned R = 0; R < Reps; ++R)
    for (const auto &Term : H.terms())
      Schedule.emplace_back(Term.String,
                            Term.Coeff * T / static_cast<double>(Reps));
  std::cerr << "eval-kernels: " << Qubits << " qubits, " << H.numTerms()
            << " terms, " << Schedule.size() << " rotations\n";

  bool Ok = true;
  std::cout
      << "columns,path,kernel,evolve_ms,overlap_ms,eval_ms,speedup,"
         "fidelity_hex\n";

  auto printRows = [&](size_t Columns, const std::vector<Row> &Rows) {
    const uint64_t RefBits = Rows[0].Bits;
    for (const Row &R : Rows) {
      const uint64_t Bits = R.Bits;
      std::cout << Columns << "," << R.Name << "," << R.Kernel << ","
                << R.EvolveMs << "," << R.OverlapMs << "," << R.Ms << ","
                << Rows[0].Ms / R.Ms << "," << serial::hex16(Bits) << "\n";
      if (Bits != RefBits) {
        std::cerr << "FAIL: " << R.Name << " at " << Columns
                  << " columns diverges from the reference path ("
                  << serial::hex16(Bits) << " != " << serial::hex16(RefBits)
                  << ")\n";
        Ok = false;
      }
    }
  };

  // The evaluation paths of one schedule: the reference yardstick, the
  // per-column scalar walk, the production evaluator pinned to each tier,
  // dispatched, and fanned out over four workers.
  auto evalRows = [&](const FidelityEvaluator &Eval,
                      const std::vector<ScheduledRotation> &Sched,
                      const std::string &Prefix) {
    std::vector<Row> Rows;
    timeRow(Rows, MinSeconds, Prefix + "reference", "none",
            [&] { return referenceFidelity(Eval, Sched); });
    timeRow(Rows, MinSeconds, Prefix + "fused", "scalar",
            [&] { return fusedSerialFidelity(Eval, Sched); });
    for (const kernels::Ops *Tier : Tiers) {
      // Production evaluator pinned to each runnable tier: the hex column
      // is the cross-tier bit-identity gate.
      kernels::selectTierForTesting(*Tier);
      timeRow(Rows, MinSeconds, Prefix + "panel-" + Tier->Name, Tier->Name,
              [&] { return SplitEval{Eval.fidelity(Sched, 1), 0.0, 0.0}; });
      kernels::selectAuto();
    }
    timeRow(Rows, MinSeconds, Prefix + "panel", Dispatched,
            [&] { return SplitEval{Eval.fidelity(Sched, 1), 0.0, 0.0}; });
    timeRow(Rows, MinSeconds, Prefix + "chunked", Dispatched,
            [&] { return SplitEval{Eval.fidelity(Sched, 4), 0.0, 0.0}; });
    return Rows;
  };

  for (size_t Columns : {size_t(1), size_t(8), size_t(16)}) {
    FidelityEvaluator Eval(H, T, Columns, /*Seed=*/7);
    const std::vector<Row> Rows = evalRows(Eval, Schedule, "");
    printRows(Columns, Rows);

    double PanelMs = 0.0, PanelScalarMs = 0.0;
    for (const Row &R : Rows) {
      if (R.Name == "panel")
        PanelMs = R.Ms;
      if (R.Name == "panel-scalar")
        PanelScalarMs = R.Ms;
    }
    const double PanelSpeedup = Rows[0].Ms / PanelMs;
    if (MinSpeedup > 0.0 && Columns >= 8 && PanelSpeedup < MinSpeedup) {
      std::cerr << "FAIL: panel speedup " << PanelSpeedup << " at " << Columns
                << " columns is below the required " << MinSpeedup << "x\n";
      Ok = false;
    }
    if (MinSimdSpeedup > 0.0 && Columns >= 8) {
      if (std::string(Dispatched) == "scalar") {
        std::cerr << "eval-kernels: SIMD speedup gate skipped at " << Columns
                  << " columns (scalar dispatch)\n";
      } else if (PanelScalarMs / PanelMs < MinSimdSpeedup) {
        std::cerr << "FAIL: SIMD panel speedup " << (PanelScalarMs / PanelMs)
                  << " over the scalar panel at " << Columns
                  << " columns is below the required " << MinSimdSpeedup
                  << "x\n";
        Ok = false;
      }
    }
  }

  // --- Sampled-schedule table: one gc shot on Na+, whose same-xMask runs
  // the evaluator applies in one panel pass each. Hex-gated only.
  {
    const BenchmarkSpec Na = *findBenchmark("Na+");
    const Hamiltonian NaH = makeBenchmark(Na).merged().splitLargeTerms();
    auto Graph = std::make_shared<const HTTGraph>(
        NaH, makeConfigMatrix(NaH, 0.4, 0.6, 0.0));
    const std::vector<ScheduledRotation> Sampled =
        CompilerEngine()
            .compileOne(SamplingStrategy(Graph, Na.Time, 0.05), /*Seed=*/1)
            .Schedule;
    size_t Shared = 0;
    for (size_t I = 1; I < Sampled.size(); ++I)
      Shared += Sampled[I].String.xMask() == Sampled[I - 1].String.xMask();
    std::cerr << "eval-kernels: gc sample on Na+: " << Sampled.size()
              << " rotations, " << Sampled.size() - Shared
              << " same-xMask runs\n";
    for (size_t Columns : {size_t(8), size_t(16)}) {
      FidelityEvaluator Eval(NaH, Na.Time, Columns, /*Seed=*/7);
      printRows(Columns, evalRows(Eval, Sampled, "gc-"));
    }
  }

  // --- Overlap-heavy table: the fused evolve+overlap tail vs the unfused
  // sweep-then-overlapWith path, per runnable tier. Two rotations over 16
  // columns on the full layout: the per-column strided overlap walk
  // dominates, which is the regime the fused kernel exists for. (The
  // evaluator would replay these two rotations in their 2-row sector,
  // where nothing is overlap-heavy.)
  {
    const size_t Columns = 16;
    std::vector<ScheduledRotation> Short(Schedule.begin(),
                                         Schedule.begin() + 2);
    FidelityEvaluator Eval(H, T, Columns, /*Seed=*/7);
    const std::vector<TargetPanel> Packed = packTargets(Eval);

    std::vector<Row> Rows;
    timeRow(Rows, MinSeconds, "reference-ov", "none",
            [&] { return referenceFidelity(Eval, Short); });
    for (const kernels::Ops *Tier : Tiers) {
      kernels::selectTierForTesting(*Tier);
      timeRow(Rows, MinSeconds, std::string("unfused-") + Tier->Name,
              Tier->Name,
              [&] { return panelFidelity(Eval, Short, nullptr); });
      timeRow(Rows, MinSeconds, std::string("fused-") + Tier->Name,
              Tier->Name,
              [&] { return panelFidelity(Eval, Short, &Packed); });
      kernels::selectAuto();
    }
    printRows(Columns, Rows);

    // Gate the fused reduction on the scalar tier and on the best tier
    // the host runs (the ends of the precedence chain); report — never
    // fail — tiers this host cannot run.
    auto msOf = [&](const std::string &Name) {
      for (const Row &R : Rows)
        if (R.Name == Name)
          return R.Ms;
      return 0.0;
    };
    for (const char *Known : {"scalar", "avx2-fma", "avx512"}) {
      if (!kernels::findTier(Known))
        std::cerr << "eval-kernels: fused gate skipped for tier " << Known
                  << " (not runnable on this host)\n";
    }
    if (MinFusedSpeedup > 0.0) {
      for (const kernels::Ops *Tier : Tiers) {
        const double Unfused = msOf(std::string("unfused-") + Tier->Name);
        const double Fused = msOf(std::string("fused-") + Tier->Name);
        const double Speedup = Unfused / Fused;
        const bool Gated = Tier == Tiers.front() || Tier == Tiers.back();
        std::cerr << "eval-kernels: fused speedup " << Speedup << "x on "
                  << Tier->Name << (Gated ? "" : " (informational)") << "\n";
        if (Gated && Speedup < MinFusedSpeedup) {
          std::cerr << "FAIL: fused evolve+overlap speedup " << Speedup
                    << "x on tier " << Tier->Name
                    << " is below the required " << MinFusedSpeedup << "x\n";
          Ok = false;
        }
      }
    }
  }

  // --- Targets table: OH-'s 8 exact targets per column and lane-batched,
  // per runnable tier. Bit-gated only.
  {
    const BenchmarkSpec OH = *findBenchmark("OH-");
    const Hamiltonian OHH = makeBenchmark(OH).merged().splitLargeTerms();
    const size_t Columns = StatePanel::PreferredWidth;
    const std::vector<uint64_t> Basis =
        FidelityEvaluator(OHH, 0.0, Columns, /*Seed=*/7).columns();
    const auto PerColumn = [&] {
      const PauliOperator Op(OHH);
      std::vector<CVector> Targets;
      for (uint64_t X : Basis) {
        CVector In(size_t(1) << OHH.numQubits(), Complex(0.0, 0.0));
        In[X] = 1.0;
        Targets.push_back(evolveExact(Op, OH.Time, In));
      }
      return Targets;
    };
    std::vector<Row> Rows;
    std::vector<CVector> Want, Got;
    timeRow(Rows, MinSeconds, "targets-per-column", "none", [&] {
      Want = PerColumn();
      return SplitEval{};
    });
    Rows.back().Bits = targetDigest(Want);
    for (const kernels::Ops *Tier : Tiers) {
      kernels::selectTierForTesting(*Tier);
      timeRow(Rows, MinSeconds, std::string("targets-panel-") + Tier->Name,
              Tier->Name, [&] {
                Got = FidelityEvaluator(OHH, OH.Time, Columns, /*Seed=*/7)
                          .targets();
                return SplitEval{};
              });
      kernels::selectAuto();
      Rows.back().Bits = targetDigest(Got);
      for (size_t C = 0; C < Columns; ++C) {
        if (std::memcmp(Got[C].data(), Want[C].data(),
                        Want[C].size() * sizeof(Complex)) != 0) {
          std::cerr << "FAIL: targets-panel-" << Tier->Name << " column "
                    << C << " differs from per-column evolveExact\n";
          Ok = false;
        }
      }
    }
    printRows(Columns, Rows);
  }

  if (Ok)
    std::cerr << "eval-kernels: all paths byte-identical to the "
                 "reference\n";
  return Ok ? 0 : 1;
}
