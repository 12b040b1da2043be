//===- core/Emitter.cpp - Schedule-to-circuit lowering -----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Emitter.h"

using namespace marqsim;

/// Inline population count. The x86-64 baseline this library builds for
/// has no POPCNT, so __builtin_popcountll is an out-of-line libgcc call
/// there; this form made the per-shot count pass ~30% faster.
static unsigned popcount(uint64_t X) {
  X = X - ((X >> 1) & 0x5555555555555555ULL);
  X = (X & 0x3333333333333333ULL) + ((X >> 2) & 0x3333333333333333ULL);
  X = (X + (X >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<unsigned>((X * 0x0101010101010101ULL) >> 56);
}

/// Mask of qubits where \p A and \p B carry the same non-identity operator.
static uint64_t matchedMask(const PauliString &A, const PauliString &B) {
  uint64_t SameX = ~(A.xMask() ^ B.xMask());
  uint64_t SameZ = ~(A.zMask() ^ B.zMask());
  return SameX & SameZ & A.supportMask() & B.supportMask();
}

/// Basis-change gates \p P needs on the qubits of \p Mask: H costs 1 (X),
/// the Sdg,H / H,S pair costs 2 (Y), Z and I cost 0.
static size_t basisGateCount(const PauliString &P, uint64_t Mask) {
  uint64_t X = P.xMask() & Mask;
  return popcount(X) + popcount(X & P.zMask());
}

static unsigned highestBit(uint64_t Mask) {
  assert(Mask != 0 && "highestBit of zero mask");
  return 63 - __builtin_clzll(Mask);
}

namespace {

/// Walks a schedule the way the emitter lowers it: identity strings
/// (global phase only) are dropped and runs of equal strings fold into one
/// rotation (paper Section 5.2: CNOT_count(i,i)=0), taus summed in order.
class NormalizedSteps {
public:
  explicit NormalizedSteps(const std::vector<ScheduledRotation> &Schedule)
      : Schedule(Schedule) {}

  /// Moves the next folded rotation into \p Out; false at the end.
  bool next(ScheduledRotation &Out) {
    while (Pos < Schedule.size() && Schedule[Pos].String.isIdentity())
      ++Pos;
    if (Pos == Schedule.size())
      return false;
    Out = Schedule[Pos++];
    for (; Pos < Schedule.size(); ++Pos) {
      const ScheduledRotation &Step = Schedule[Pos];
      if (Step.String.isIdentity())
        continue;
      if (!(Step.String == Out.String))
        break;
      Out.Tau += Step.Tau;
    }
    return true;
  }

private:
  const std::vector<ScheduledRotation> &Schedule;
  size_t Pos = 0;
};

/// Appends the gates the decision routine asks for. Qubits are visited in
/// ascending order within each layer.
struct GateSink {
  Circuit &C;

  /// Enter layer of \p P on \p Basis, leading ladder from \p Ladder into
  /// \p Root, then the root rotation.
  void enter(const PauliString &P, uint64_t Basis, uint64_t Ladder,
             unsigned Root, double Tau) {
    for (uint64_t M = Basis; M; M &= M - 1) {
      unsigned Q = __builtin_ctzll(M);
      appendBasisChange(C, P.op(Q), Q, /*Inverse=*/false);
    }
    for (uint64_t M = Ladder; M; M &= M - 1)
      C.cnot(__builtin_ctzll(M), Root);
    // Rz(-2 tau) realizes exp(i tau P) (Rz(phi) = e^{-i phi Z / 2}).
    C.rz(Root, -2.0 * Tau);
  }

  /// Trailing ladder from \p Ladder into \p Root, then the leave layer of
  /// \p P on \p Basis.
  void leave(const PauliString &P, uint64_t Basis, uint64_t Ladder,
             unsigned Root) {
    for (uint64_t M = Ladder; M; M &= M - 1)
      C.cnot(__builtin_ctzll(M), Root);
    for (uint64_t M = Basis; M; M &= M - 1) {
      unsigned Q = __builtin_ctzll(M);
      appendBasisChange(C, P.op(Q), Q, /*Inverse=*/true);
    }
  }
};

/// Counts the gates GateSink would append, by popcount.
struct CountSink {
  GateCounts Counts;

  void enter(const PauliString &P, uint64_t Basis, uint64_t Ladder, unsigned,
             double) {
    Counts.SingleQubit += basisGateCount(P, Basis) + 1; // + the Rz
    Counts.CNOTs += popcount(Ladder);
  }

  void leave(const PauliString &P, uint64_t Basis, uint64_t Ladder,
             unsigned) {
    Counts.SingleQubit += basisGateCount(P, Basis);
    Counts.CNOTs += popcount(Ladder);
  }
};

} // namespace

/// The one lowering routine behind emitSchedule and countSchedule: chooses
/// every root and cancellation mask and hands each snippet half to \p Out,
/// so gates and counts can never disagree.
template <typename Sink>
static EmitStats lowerSchedule(const std::vector<ScheduledRotation> &Schedule,
                               const EmitOptions &Opts, Sink &Out) {
  EmitStats Stats;
  NormalizedSteps Steps(Schedule);
  ScheduledRotation Cur, Next;
  if (!Steps.next(Cur))
    return Stats;
  bool HasNext = Steps.next(Next);

  PauliString Prev;
  unsigned PrevRoot = 0;
  uint64_t PrevSupport = 0;
  for (bool First = true;; First = false) {
    const PauliString &P = Cur.String;
    const uint64_t Support = P.supportMask();

    // Root selection with one step of lookahead. Priorities:
    //  1. keep the previous root when the operator on it matches — that is
    //     what unlocks ladder CNOT cancellation at this boundary;
    //  2. otherwise move the root into the set matched with the *next*
    //     string, so the following boundary can cancel;
    //  3. otherwise any qubit matched with the previous string;
    //  4. otherwise the highest support qubit.
    uint64_t MPrev = 0, MNext = 0;
    if (Opts.CrossCancellation) {
      if (!First)
        MPrev = matchedMask(Prev, P);
      if (HasNext)
        MNext = matchedMask(P, Next.String);
    }
    unsigned Root;
    uint64_t CancelCNOTs = 0;
    if (!First && ((MPrev >> PrevRoot) & 1)) {
      Root = PrevRoot;
      CancelCNOTs = MPrev & ~(1ULL << Root);
    } else if (MNext != 0) {
      uint64_t Both = MNext & MPrev;
      Root = highestBit(Both != 0 ? Both : MNext);
    } else if (MPrev != 0) {
      Root = highestBit(MPrev);
    } else {
      Root = highestBit(Support);
    }

    // The previous snippet's tail minus the pairs cancelled against P.
    if (!First) {
      Out.leave(Prev, PrevSupport & ~MPrev,
                PrevSupport & ~(1ULL << PrevRoot) & ~CancelCNOTs, PrevRoot);
      Stats.CancelledCNOTs += 2 * popcount(CancelCNOTs);
      Stats.CancelledSingles += 2 * basisGateCount(P, MPrev);
    }
    Out.enter(P, Support & ~MPrev, Support & ~(1ULL << Root) & ~CancelCNOTs,
              Root, Cur.Tau);

    Prev = P;
    PrevRoot = Root;
    PrevSupport = Support;
    if (!HasNext)
      break;
    Cur = Next;
    HasNext = Steps.next(Next);
  }
  Out.leave(Prev, PrevSupport, PrevSupport & ~(1ULL << PrevRoot), PrevRoot);
  return Stats;
}

Circuit marqsim::emitSchedule(const std::vector<ScheduledRotation> &Schedule,
                              unsigned NumQubits, const EmitOptions &Opts,
                              EmitStats *Stats) {
  Circuit C(NumQubits);
  GateSink Out{C};
  EmitStats S = lowerSchedule(Schedule, Opts, Out);
  if (Stats)
    *Stats = S;
  return C;
}

GateCounts marqsim::countSchedule(const std::vector<ScheduledRotation> &Schedule,
                                  const EmitOptions &Opts, EmitStats *Stats) {
  CountSink Out;
  EmitStats S = lowerSchedule(Schedule, Opts, Out);
  if (Stats)
    *Stats = S;
  return Out.Counts;
}
