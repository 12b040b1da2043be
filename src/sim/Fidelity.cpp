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
#include <map>
#include <mutex>

using namespace marqsim;

/// Packed target panels, built lazily the first time a block is evaluated
/// fused and reused across every subsequent schedule replay. Keyed by
/// block index.
struct marqsim::detail::TargetPanelCache {
  std::mutex M;
  std::map<size_t, std::unique_ptr<TargetPanel>> Panels;
};

namespace {

/// A schedule planned once per evaluation, before any block replays it:
/// the rotations ahead of the fused tail, grouped into runs of consecutive
/// non-identity rotations with equal xMask — each run one pass through a
/// panel — with every step's trig and phase constants precomputed. An
/// identity rotation (a global phase) is a run of its own.
class SchedulePlan {
public:
  SchedulePlan(const std::vector<ScheduledRotation> &Schedule, size_t Count)
      : Schedule(Schedule) {
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
  }

  /// Applies the planned rotations to \p State (a StatePanel or a
  /// StateVector), run by run.
  template <typename StateT> void replay(StateT &State) const {
    for (const Run &R : Runs) {
      if (R.Identity)
        State.applyPauliExpAll(Schedule[R.Begin].String, Schedule[R.Begin].Tau);
      else
        State.applyPauliExpRun(R.XMask, Steps.data() + R.Begin,
                               R.End - R.Begin);
    }
  }

private:
  struct Run {
    size_t Begin, End; // schedule indices [Begin, End)
    uint64_t XMask;
    bool Identity;
  };
  const std::vector<ScheduledRotation> &Schedule;
  std::vector<kernels::RotationStep> Steps; // one per schedule index
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
    : NQubits(H.numQubits()),
      PanelCache(std::make_shared<detail::TargetPanelCache>()) {
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
  // thread.
  const PauliOperator Op(H);
  Targets.reserve(Columns.size());
  for (uint64_t X : Columns) {
    CVector Basis(Dim, Complex(0.0, 0.0));
    Basis[X] = 1.0;
    Targets.push_back(evolveExact(Op, T, Basis));
  }
}

FidelityEvaluator::FidelityEvaluator(unsigned NQubits,
                                     std::vector<uint64_t> Columns,
                                     std::vector<CVector> Targets)
    : NQubits(NQubits), Columns(std::move(Columns)),
      Targets(std::move(Targets)),
      PanelCache(std::make_shared<detail::TargetPanelCache>()) {
  assert(this->Columns.size() == this->Targets.size() &&
         "one target per column");
}

const TargetPanel &FidelityEvaluator::targetPanelFor(size_t Block,
                                                     size_t Begin,
                                                     size_t Count,
                                                     size_t Stride) const {
  std::lock_guard<std::mutex> Lock(PanelCache->M);
  std::unique_ptr<TargetPanel> &Slot = PanelCache->Panels[Block];
  if (!Slot)
    Slot = std::make_unique<TargetPanel>(Targets.data() + Begin, Count, Stride);
  return *Slot;
}

template <typename EvolveFn>
std::vector<Complex>
FidelityEvaluator::collectOverlaps(unsigned EvalJobs, const EvolveFn &Evolve,
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
    if (End - Begin == 1) {
      // A width-1 tail block walks one interleaved statevector instead of
      // a panel padded to a full vector of lanes — less wasted work and
      // the same per-element arithmetic, so the same bits. The fused
      // tail, when split off, is applied here before the single overlap
      // — for one column, rotate-then-overlap is literally the same
      // operation sequence either way.
      StateVector Walk(NQubits, Columns[Begin]);
      Evolve(Walk);
      if (FusedTail)
        Walk.applyPauliExpAll(FusedTail->String, FusedTail->Tau);
      Overlaps[Begin] = Walk.overlapWithTarget(Targets[Begin]);
      return;
    }
    StatePanel Panel(NQubits, Columns.data() + Begin, End - Begin);
    Evolve(Panel);
    if (FusedTail) {
      const TargetPanel &Packed =
          targetPanelFor(Block, Begin, End - Begin, Panel.laneStride());
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
  const SchedulePlan Plan(Schedule, Schedule.size() - (Tail ? 1 : 0));
  return collectOverlaps(
      EvalJobs, [&](auto &State) { Plan.replay(State); }, Tail);
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
  return traceFidelity(
      collectOverlaps(EvalJobs, [&](auto &State) { State.applyAll(C); }));
}
