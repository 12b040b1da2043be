//===- core/Emitter.cpp - Schedule-to-circuit lowering -----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Emitter.h"

#include "support/CpuFeatures.h"
#include "support/Serial.h"

using namespace marqsim;

#if defined(__x86_64__) || defined(__i386__)
#define MARQSIM_TARGET_POPCNT __attribute__((target("popcnt")))
#else
#define MARQSIM_TARGET_POPCNT
#endif

namespace {

/// Population count without the POPCNT instruction. The x86-64 baseline
/// this library builds for lacks it, so __builtin_popcountll would be an
/// out-of-line libgcc call there.
struct PortablePopcount {
  static unsigned count(uint64_t X) {
    X = X - ((X >> 1) & 0x5555555555555555ULL);
    X = (X & 0x3333333333333333ULL) + ((X >> 2) & 0x3333333333333333ULL);
    X = (X + (X >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return static_cast<unsigned>((X * 0x0101010101010101ULL) >> 56);
  }
};

/// The POPCNT instruction: inlined only into MARQSIM_TARGET_POPCNT
/// functions, which run only on hosts that have it.
struct HardwarePopcount {
  __attribute__((always_inline)) static unsigned count(uint64_t X) {
    return static_cast<unsigned>(__builtin_popcountll(X));
  }
};

/// Mask of qubits where \p A and \p B carry the same non-identity operator.
uint64_t matchedMask(uint64_t AX, uint64_t AZ, uint64_t BX, uint64_t BZ) {
  return ~(AX ^ BX) & ~(AZ ^ BZ) & (AX | AZ) & (BX | BZ);
}

uint64_t matchedMask(const PauliString &A, const PauliString &B) {
  return matchedMask(A.xMask(), A.zMask(), B.xMask(), B.zMask());
}

/// Basis-change gates a string with x mask \p X and z mask \p Z needs on
/// the qubits of \p Mask: H costs 1 (X), the Sdg,H / H,S pair costs 2 (Y),
/// Z and I cost 0.
template <class Popcount>
unsigned basisGateCount(uint64_t X, uint64_t Z, uint64_t Mask) {
  return Popcount::count(X & Mask) + Popcount::count(X & Z & Mask);
}

unsigned highestBit(uint64_t Mask) {
  assert(Mask != 0 && "highestBit of zero mask");
  return 63 - __builtin_clzll(Mask);
}

/// A snippet's root and the ladder CNOTs it cancels against the previous
/// snippet (counted once; the pair is twice that).
struct RootChoice {
  unsigned Root;
  uint64_t Cancel;
};

/// The one decision routine behind every lowering. \p MPrev and \p MNext
/// are the qubits matched with the previous and the next string (0 when
/// there is none, or without cross cancellation), \p PrevRoot the previous
/// snippet's root. Priorities, with one step of lookahead:
///  1. keep the previous root when the operator on it matches — that is
///     what unlocks ladder CNOT cancellation at this boundary;
///  2. otherwise move the root into the set matched with the *next*
///     string, so the following boundary can cancel;
///  3. otherwise any qubit matched with the previous string;
///  4. otherwise the highest support qubit.
RootChoice chooseRoot(uint64_t MPrev, unsigned PrevRoot, uint64_t MNext,
                      uint64_t Support) {
  if ((MPrev >> PrevRoot) & 1)
    return {PrevRoot, MPrev & ~(1ULL << PrevRoot)};
  if (MNext != 0) {
    uint64_t Both = MNext & MPrev;
    return {highestBit(Both != 0 ? Both : MNext), 0};
  }
  return {highestBit(MPrev != 0 ? MPrev : Support), 0};
}

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

/// What the count pass needs of one term: its masks, its weight
/// w = |supp P| and its basis cost b = basis(P, supp P).
struct TermCost {
  uint64_t X = 0, Z = 0, Support = 0;
  unsigned Weight = 0, Basis = 0;
};

template <class Popcount> TermCost termCost(const PauliString &P) {
  TermCost T;
  T.X = P.xMask();
  T.Z = P.zMask();
  T.Support = P.supportMask();
  T.Weight = Popcount::count(T.Support);
  T.Basis = basisGateCount<Popcount>(T.X, T.Z, T.Support);
  return T;
}

/// The gate counts of emitSchedule's lowering, fed one rotation at a time.
/// A rotation's snippet alone costs 2 (w - 1) ladder CNOTs and 2 b + 1
/// single-qubit gates (with the Rz). A boundary whose strings match on M
/// (chooseRoot's MPrev) elides basis(P, M) gates on each side — the two
/// strings agree on M — and, when the root is kept, |Cancel| ladder CNOTs
/// on each side. That is three popcounts per boundary; the roots come from
/// the same chooseRoot as the gates.
template <class Popcount> class CountPass {
public:
  explicit CountPass(bool CrossCancellation)
      : CrossCancellation(CrossCancellation) {}

  /// Feeds the next rotation's term. Identities drop out and a string
  /// equal to the previous one folds into it, as in NormalizedSteps.
  /// Always inlined, like settle(): the per-visit fold runs inside the
  /// popcount clones, whose popcount must be the one that runs.
  __attribute__((always_inline)) void push(const TermCost &T) {
    if (T.Support == 0)
      return;
    if (HasCur) {
      if (T.X == Cur.X && T.Z == Cur.Z)
        return;
      uint64_t M =
          CrossCancellation ? matchedMask(Cur.X, Cur.Z, T.X, T.Z) : 0;
      settle(M);
      MPrev = M;
    }
    Cur = T;
    HasCur = true;
    Ladders += Cur.Weight - 1;
    Singles += 2 * Cur.Basis + 1;
  }

  /// The counts of everything pushed so far, as emitSchedule lowers it.
  GateCounts finish(EmitStats *Stats) {
    if (HasCur)
      settle(0);
    GateCounts Counts;
    Counts.CNOTs = 2 * (Ladders - CancelledLadders);
    Counts.SingleQubit = Singles - 2 * CancelledBasis;
    if (Stats) {
      Stats->CancelledCNOTs = 2 * CancelledLadders;
      Stats->CancelledSingles = 2 * CancelledBasis;
    }
    return Counts;
  }

private:
  /// Chooses Cur's root now that the next string's match \p MNext is
  /// known, and counts the boundary into Cur.
  __attribute__((always_inline)) void settle(uint64_t MNext) {
    RootChoice R = chooseRoot(MPrev, PrevRoot, MNext, Cur.Support);
    CancelledLadders += Popcount::count(R.Cancel);
    CancelledBasis += basisGateCount<Popcount>(Cur.X, Cur.Z, MPrev);
    PrevRoot = R.Root;
  }

  bool CrossCancellation;
  bool HasCur = false;
  TermCost Cur;
  uint64_t MPrev = 0;
  unsigned PrevRoot = 0;
  size_t Ladders = 0, Singles = 0, CancelledLadders = 0, CancelledBasis = 0;
};

/// The per-shot back end, fed one term visit at a time in visit order:
/// the sequence-hash step (hashSequence's), the count pass, and, when a
/// Schedule is given, the folded append. Every entry below runs this fold.
template <class Popcount> class ShotFold {
public:
  ShotFold(const Hamiltonian &H, const EmitOptions &Opts,
           std::vector<ScheduledRotation> *Schedule)
      : H(H), Costs(H.numTerms()), Count(Opts.CrossCancellation),
        Schedule(Schedule) {
    for (size_t I = 0; I < Costs.size(); ++I)
      Costs[I] = termCost<Popcount>(H.term(I).String);
  }

  /// Folds in a visit of term \p Index at angle \p Tau (read only by the
  /// Schedule append).
  __attribute__((always_inline)) void visit(size_t Index, double Tau) {
    assert(Index < Costs.size() && "sampled index out of range");
    Hash = serial::fnv1aIndex(Index, Hash);
    Count.push(Costs[Index]);
    if (!Schedule)
      return;
    const PauliString &P = H.term(Index).String;
    if (!Schedule->empty() && Schedule->back().String == P)
      Schedule->back().Tau += Tau;
    else
      Schedule->emplace_back(P, Tau);
  }

  /// The summary of \p NumSamples visits.
  ShotSummary finish(size_t NumSamples) {
    ShotSummary S;
    S.NumSamples = NumSamples;
    S.Counts = Count.finish(&S.Stats);
    S.SequenceHash = Hash;
    return S;
  }

private:
  const Hamiltonian &H;
  std::vector<TermCost> Costs;
  CountPass<Popcount> Count;
  std::vector<ScheduledRotation> *Schedule;
  uint64_t Hash = serial::FNVOffset;
};

/// The fold over a Sequence on one popcount; always inlined, so the
/// popcount the caller is compiled for is the one that runs. The Schedule
/// is replaced.
template <class Popcount>
__attribute__((always_inline)) inline ShotSummary
foldAndCountWith(const Hamiltonian &H, const std::vector<size_t> &Sequence,
                 const std::vector<double> &Taus, double TauStep,
                 const EmitOptions &Opts,
                 std::vector<ScheduledRotation> &Schedule) {
  ShotFold<Popcount> Fold(H, Opts, &Schedule);
  Schedule.clear();
  Schedule.reserve(Sequence.size());
  for (size_t K = 0; K < Sequence.size(); ++K) {
    double Tau = !Taus.empty() ? Taus[K]
                 : H.term(Sequence[K]).Coeff >= 0.0 ? TauStep
                                                    : -TauStep;
    Fold.visit(Sequence[K], Tau);
  }
  return Fold.finish(Sequence.size());
}

ShotSummary foldAndCountPortable(const Hamiltonian &H,
                                 const std::vector<size_t> &Sequence,
                                 const std::vector<double> &Taus,
                                 double TauStep, const EmitOptions &Opts,
                                 std::vector<ScheduledRotation> &Schedule) {
  return foldAndCountWith<PortablePopcount>(H, Sequence, Taus, TauStep, Opts,
                                            Schedule);
}

MARQSIM_TARGET_POPCNT ShotSummary foldAndCountHardware(
    const Hamiltonian &H, const std::vector<size_t> &Sequence,
    const std::vector<double> &Taus, double TauStep, const EmitOptions &Opts,
    std::vector<ScheduledRotation> &Schedule) {
  return foldAndCountWith<HardwarePopcount>(H, Sequence, Taus, TauStep, Opts,
                                            Schedule);
}

/// The fold inside the walk on one popcount (see foldAndCountWith): the
/// walk loop, the visitor and the fold inline into one loop.
template <class Popcount>
__attribute__((always_inline)) inline ShotSummary
walkAndCountWith(const MarkovChainSampler &Chain, RNG &Rng, size_t Count,
                 const Hamiltonian &H, const EmitOptions &Opts) {
  assert(Chain.numStates() == H.numTerms() && "chain and terms differ");
  ShotFold<Popcount> Fold(H, Opts, nullptr);
  Chain.walk(Rng, Count, [&Fold](size_t State) __attribute__((
                             always_inline)) { Fold.visit(State, 0.0); });
  return Fold.finish(Count);
}

ShotSummary walkAndCountPortable(const MarkovChainSampler &Chain, RNG &Rng,
                                 size_t Count, const Hamiltonian &H,
                                 const EmitOptions &Opts) {
  return walkAndCountWith<PortablePopcount>(Chain, Rng, Count, H, Opts);
}

MARQSIM_TARGET_POPCNT ShotSummary
walkAndCountHardware(const MarkovChainSampler &Chain, RNG &Rng, size_t Count,
                     const Hamiltonian &H, const EmitOptions &Opts) {
  return walkAndCountWith<HardwarePopcount>(Chain, Rng, Count, H, Opts);
}

} // namespace

Circuit marqsim::emitSchedule(const std::vector<ScheduledRotation> &Schedule,
                              unsigned NumQubits, const EmitOptions &Opts,
                              EmitStats *Stats) {
  Circuit C(NumQubits);
  GateSink Out{C};
  EmitStats S;
  NormalizedSteps Steps(Schedule);
  ScheduledRotation Cur, Next;
  if (Steps.next(Cur)) {
    bool HasNext = Steps.next(Next);
    PauliString Prev;
    unsigned PrevRoot = 0;
    uint64_t PrevSupport = 0, MPrev = 0; // PrevSupport 0: first snippet
    for (;;) {
      const PauliString &P = Cur.String;
      const uint64_t Support = P.supportMask();
      const uint64_t MNext = Opts.CrossCancellation && HasNext
                                 ? matchedMask(P, Next.String)
                                 : 0;
      RootChoice R = chooseRoot(MPrev, PrevRoot, MNext, Support);

      // The previous snippet's tail minus the pairs cancelled against P.
      if (PrevSupport != 0) {
        Out.leave(Prev, PrevSupport & ~MPrev,
                  PrevSupport & ~(1ULL << PrevRoot) & ~R.Cancel, PrevRoot);
        S.CancelledCNOTs += 2 * PortablePopcount::count(R.Cancel);
        S.CancelledSingles +=
            2 * basisGateCount<PortablePopcount>(P.xMask(), P.zMask(), MPrev);
      }
      Out.enter(P, Support & ~MPrev, Support & ~(1ULL << R.Root) & ~R.Cancel,
                R.Root, Cur.Tau);

      Prev = P;
      PrevRoot = R.Root;
      PrevSupport = Support;
      MPrev = MNext;
      if (!HasNext)
        break;
      Cur = Next;
      HasNext = Steps.next(Next);
    }
    Out.leave(Prev, PrevSupport, PrevSupport & ~(1ULL << PrevRoot), PrevRoot);
  }
  if (Stats)
    *Stats = S;
  return C;
}

PopcountPath marqsim::hostPopcountPath() {
  return cpuFeatures().POPCNT ? PopcountPath::Hardware
                              : PopcountPath::Portable;
}

ShotSummary marqsim::foldAndCount(const Hamiltonian &H,
                                  const std::vector<size_t> &Sequence,
                                  const std::vector<double> &Taus,
                                  double TauStep, const EmitOptions &Opts,
                                  std::vector<ScheduledRotation> &Schedule,
                                  PopcountPath Path) {
  assert((Taus.empty() || Taus.size() == Sequence.size()) &&
         "per-visit tau vector must match the sequence length");
  if (Path == PopcountPath::Hardware) {
    assert(cpuFeatures().POPCNT && "hardware popcount on a host without it");
    return foldAndCountHardware(H, Sequence, Taus, TauStep, Opts, Schedule);
  }
  return foldAndCountPortable(H, Sequence, Taus, TauStep, Opts, Schedule);
}

ShotSummary marqsim::walkAndCount(const MarkovChainSampler &Chain, RNG &Rng,
                                  size_t Count, const Hamiltonian &H,
                                  const EmitOptions &Opts,
                                  PopcountPath Path) {
  if (Path == PopcountPath::Hardware) {
    assert(cpuFeatures().POPCNT && "hardware popcount on a host without it");
    return walkAndCountHardware(Chain, Rng, Count, H, Opts);
  }
  return walkAndCountPortable(Chain, Rng, Count, H, Opts);
}
