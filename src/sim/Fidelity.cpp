//===- sim/Fidelity.cpp - Unitary fidelity estimation -------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Fidelity.h"

#include "sim/Evolution.h"
#include "sim/Kernels.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace marqsim;

namespace {

/// A schedule planned once per evaluation, before any block replays it:
/// the rotations ahead of the fused tail, grouped into runs of consecutive
/// non-identity rotations with equal xMask — each run one pass through a
/// panel — with every step's trig and phase constants precomputed. An
/// identity rotation (a global phase) is a run of its own.
///
/// The plan also spans the x-masks of the whole schedule, fused tail
/// included, into the Sector its panels evolve in, and keeps every step in
/// that sector's coordinates (replay() adds each block's lane flips, read
/// off the full zMask of the step's string).
class SchedulePlan {
public:
  SchedulePlan(const std::vector<ScheduledRotation> &Schedule, size_t Count,
               unsigned NQubits)
      : Schedule(Schedule), Span(NQubits) {
    Steps.reserve(Count);
    for (size_t I = 0; I < Count; ++I) {
      const PauliString &P = Schedule[I].String;
      Steps.push_back(kernels::RotationStep::of(P, Schedule[I].Tau));
      const bool Identity = P.isIdentity();
      if (!Identity && !Runs.empty() && !Runs.back().Identity &&
          Runs.back().XMask == P.xMask())
        ++Runs.back().End;
      else
        Runs.push_back({I, I + 1, P.xMask(), Identity});
    }
    for (const Run &R : Runs)
      Span.insert(R.XMask);
    for (size_t I = Count; I < Schedule.size(); ++I)
      Span.insert(Schedule[I].String.xMask());
    for (Run &R : Runs)
      R.XMask = Span.coords(R.XMask);
    for (kernels::RotationStep &R : Steps)
      R.ZMask = Span.zMask(R.ZMask);
  }

  /// The span of every x-mask in the schedule.
  const Sector &sector() const { return Span; }

  /// Applies the planned rotations to a panel over sector(), run by run,
  /// in the panel's row coordinates.
  void replay(StatePanel &Panel) const {
    assert(Panel.sector() == Span && "panel outside the plan's sector");
    const kernels::RotationStep *Local = Steps.data();
    std::vector<kernels::RotationStep> Flipped;
    if (Panel.hasLaneFlips()) {
      Flipped = Steps;
      for (size_t J = 0; J < Flipped.size(); ++J)
        Flipped[J].LaneFlips = Panel.laneFlips(Schedule[J].String.zMask());
      Local = Flipped.data();
    }
    for (const Run &R : Runs) {
      if (R.Identity)
        Panel.applyPauliExpAll(Schedule[R.Begin].String, Schedule[R.Begin].Tau);
      else
        Panel.applyPauliExpRun(R.XMask, Local + R.Begin, R.End - R.Begin);
    }
  }

private:
  struct Run {
    size_t Begin, End; // schedule indices [Begin, End)
    uint64_t XMask;    // in sector coordinates
    bool Identity;
  };
  const std::vector<ScheduledRotation> &Schedule;
  Sector Span;
  std::vector<kernels::RotationStep> Steps; // sector coordinates, per index
  std::vector<Run> Runs;
};

/// The unitary-fidelity reduction |sum of overlaps| / C. Per-column
/// overlaps are pure functions of their column, so this serial chain over
/// ascending columns reproduces the single-state evaluation loop bit for
/// bit no matter how the blocks were scheduled.
double traceFidelity(const std::vector<Complex> &Overlaps) {
  Complex Acc = 0.0;
  for (const Complex &O : Overlaps)
    Acc += O;
  return std::abs(Acc) / static_cast<double>(Overlaps.size());
}

} // namespace

double marqsim::unitaryFidelity(const Matrix &UApp, const Matrix &UExact) {
  assert(UApp.rows() == UExact.rows() && UApp.cols() == UExact.cols() &&
         "fidelity shape mismatch");
  // tr(A B^dag) = sum_ij A_ij conj(B_ij).
  Complex Tr = 0.0;
  for (size_t I = 0; I < UApp.rows(); ++I)
    for (size_t J = 0; J < UApp.cols(); ++J)
      Tr += UApp.at(I, J) * std::conj(UExact.at(I, J));
  return std::abs(Tr) / static_cast<double>(UApp.rows());
}

FidelityEvaluator::FidelityEvaluator(const Hamiltonian &H, double T,
                                     size_t NumColumns, uint64_t Seed)
    : NQubits(H.numQubits()) {
  const size_t Dim = size_t(1) << NQubits;
  if (NumColumns >= Dim) {
    Columns.resize(Dim);
    for (size_t X = 0; X < Dim; ++X)
      Columns[X] = X;
  } else {
    // Deterministic distinct random columns (partial Fisher-Yates).
    std::vector<uint64_t> All(Dim);
    for (size_t X = 0; X < Dim; ++X)
      All[X] = X;
    RNG Rng(Seed);
    for (size_t I = 0; I < NumColumns; ++I) {
      size_t J = I + Rng.uniformInt(Dim - I);
      std::swap(All[I], All[J]);
    }
    Columns.assign(All.begin(), All.begin() + NumColumns);
    std::sort(Columns.begin(), Columns.end());
  }

  // One grouped operator serves every column and is dropped on return, so
  // only the targets stay resident. The columns evolve on the calling
  // thread, in the blocks collectOverlaps evaluates: each block of several
  // columns as one full-layout panel, a width-1 block as one vector (no
  // padding lanes). Both give each column evolveExact's bits.
  const PauliOperator Op(H);
  Targets.reserve(Columns.size());
  constexpr size_t Width = StatePanel::PreferredWidth;
  for (size_t Begin = 0; Begin < Columns.size(); Begin += Width) {
    const size_t End = std::min(Begin + Width, Columns.size());
    if (End - Begin == 1) {
      CVector Basis(Dim, Complex(0.0, 0.0));
      Basis[Columns[Begin]] = 1.0;
      Targets.push_back(evolveExact(Op, T, Basis));
      continue;
    }
    StatePanel Block(NQubits, Columns.data() + Begin, End - Begin);
    evolveExact(Op, T, Block);
    for (size_t C = 0; C < End - Begin; ++C)
      Targets.push_back(Block.column(C));
  }
}

FidelityEvaluator::FidelityEvaluator(unsigned NQubits,
                                     std::vector<uint64_t> Columns,
                                     std::vector<CVector> Targets)
    : NQubits(NQubits), Columns(std::move(Columns)),
      Targets(std::move(Targets)) {
  assert(this->Columns.size() == this->Targets.size() &&
         "one target per column");
}

template <typename EvolveFn>
std::vector<Complex>
FidelityEvaluator::collectOverlaps(unsigned EvalJobs, const Sector &Span,
                                   const EvolveFn &Evolve,
                                   const ScheduledRotation *FusedTail) const {
  const size_t NumCols = Columns.size();
  // The block partition is a fixed function of the column count — never
  // of EvalJobs — so every worker count computes the same blocks and the
  // fixed-order reductions over the result yield the same bits.
  constexpr size_t Width = StatePanel::PreferredWidth;
  const size_t Blocks = (NumCols + Width - 1) / Width;
  std::vector<Complex> Overlaps(NumCols);
  const unsigned Jobs =
      EvalJobs == 0 ? ThreadPool::hardwareWorkers() : EvalJobs;
  parallelFor(Blocks, Jobs, [&](size_t Block) {
    const size_t Begin = Block * Width;
    const size_t End = std::min(Begin + Width, NumCols);
    StatePanel Panel(Span, Columns.data() + Begin, End - Begin);
    Evolve(Panel);
    if (FusedTail) {
      // The packed targets follow the panel's sector, which is the
      // schedule's: gathered per evaluation (2^rank rows), never cached.
      const TargetPanel Packed(Panel, Targets.data() + Begin);
      Panel.applyPauliExpAllFused(FusedTail->String, FusedTail->Tau, Packed,
                                  Overlaps.data() + Begin);
      return;
    }
    for (size_t C = Begin; C < End; ++C)
      Overlaps[C] = Panel.overlapWith(Targets[C], C - Begin);
  });
  return Overlaps;
}

std::vector<Complex> FidelityEvaluator::scheduleOverlaps(
    const std::vector<ScheduledRotation> &Schedule, unsigned EvalJobs) const {
  // The final rotation runs fused with the overlap accumulation; the plan
  // stops one step short of it.
  const ScheduledRotation *Tail = Schedule.empty() ? nullptr : &Schedule.back();
  const SchedulePlan Plan(Schedule, Schedule.size() - (Tail ? 1 : 0),
                          NQubits);
  return collectOverlaps(
      EvalJobs, Plan.sector(), [&](StatePanel &Panel) { Plan.replay(Panel); },
      Tail);
}

double
FidelityEvaluator::fidelity(const std::vector<ScheduledRotation> &Schedule,
                            unsigned EvalJobs) const {
  return traceFidelity(scheduleOverlaps(Schedule, EvalJobs));
}

double FidelityEvaluator::stateFidelity(
    const std::vector<ScheduledRotation> &Schedule, unsigned EvalJobs) const {
  const std::vector<Complex> Overlaps = scheduleOverlaps(Schedule, EvalJobs);
  double Acc = 0.0;
  for (const Complex &O : Overlaps)
    Acc += std::norm(O);
  return Acc / static_cast<double>(Overlaps.size());
}

double FidelityEvaluator::fidelityOfCircuit(const Circuit &C,
                                            unsigned EvalJobs) const {
  assert(C.numQubits() == NQubits && "circuit width mismatch");
  // Gates leave a sector mid-gadget: circuits run on the full layout.
  return traceFidelity(collectOverlaps(
      EvalJobs, Sector::full(NQubits),
      [&](StatePanel &Panel) { Panel.applyAll(C); }));
}
