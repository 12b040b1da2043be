//===- markov/Sampler.h - Discrete and Markov-chain sampling ----*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sampling machinery for Algorithm 1 of the paper ("Compilation As
/// Sampling from Markov Process").
///
/// Two discrete samplers are provided: Walker's alias method (O(1) per
/// draw after O(n) setup) and a binary-search CDF sampler (O(log n) per
/// draw, the complexity the paper's analysis assumes via
/// Bringmann-Panagiotou). MarkovChainSampler walks the chain over a
/// column-minimum decomposition of the transition matrix: one table shared
/// by every row plus a sparse table per row (see its comment). It is
/// immutable once built; every walk hands its states to a visitor, which
/// either stores them or folds them as they are drawn.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_MARKOV_SAMPLER_H
#define MARQSIM_MARKOV_SAMPLER_H

#include "markov/TransitionMatrix.h"
#include "support/RNG.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace marqsim {

namespace detail {

/// Cond ? A : B by masking, so the compiler cannot turn it into a branch:
/// the walk's coin and alias tests are close to fair flips, which a branch
/// would mispredict about half the time.
template <typename T> T pick(bool Cond, T A, T B) {
  return B ^ ((A ^ B) & (T(0) - T(Cond)));
}

/// The index a quantile \p U selects in running sums \p Cum[0, N), clamped
/// to the last entry that adds weight (see CDFSampler::indexForQuantile).
inline size_t quantileIndex(const double *Cum, size_t N, double U) {
  double X = U * Cum[N - 1];
  size_t I = static_cast<size_t>(std::upper_bound(Cum, Cum + N, X) - Cum);
  if (I >= N) {
    // U * back rounded to (or past) the final cumulative sum. Clamp to the
    // last index with positive weight: trailing zero-weight entries share
    // the final cumulative value and must never be returned.
    I = N - 1;
    while (I > 0 && Cum[I] <= Cum[I - 1])
      --I;
  }
  return I;
}

} // namespace detail

/// Walker/Vose alias sampler over a fixed discrete distribution.
class AliasSampler {
public:
  AliasSampler() = default;

  /// Builds the alias table from non-negative, finite weights (need not be
  /// normalized; at least one must be positive). Throws
  /// std::invalid_argument otherwise.
  explicit AliasSampler(const std::vector<double> &Weights);

  /// Draws one index: a cell uniformly (by Draw), then the cell's own
  /// index or its alias. Inline: the Markov walk draws every step from one
  /// of these tables.
  size_t sample(RNG &Rng) const {
    assert(!Prob.empty() && "sampling from an unbuilt alias table");
    size_t Cell = Draw(Rng);
    return Rng.uniform() < Prob[Cell] ? Cell : Alias[Cell];
  }

  /// The distribution the table draws from, cell by cell (sums to 1 up to
  /// rounding). Tests compare it against the weights it was built from.
  std::vector<double> law() const;

  size_t size() const { return Prob.size(); }

private:
  std::vector<double> Prob;
  std::vector<uint32_t> Alias;
  BoundedDraw Draw;
};

/// Binary-search inverse-CDF sampler over a fixed discrete distribution.
class CDFSampler {
public:
  CDFSampler() = default;

  /// Builds cumulative sums from non-negative, finite weights (at least one
  /// positive). Throws std::invalid_argument otherwise.
  explicit CDFSampler(const std::vector<double> &Weights);

  /// Draws one index in O(log n).
  size_t sample(RNG &Rng) const;

  /// Maps a quantile \p U (nominally in [0, 1)) to its index. Clamps draws
  /// that land at or past the final cumulative sum — floating-point
  /// accumulation can make Cumulative.back() smaller than the true total
  /// weight — to the last index with positive weight, so the result is
  /// always in range and in the support of the distribution.
  size_t indexForQuantile(double U) const;

  /// The distribution the cumulative sums draw from (see AliasSampler).
  std::vector<double> law() const;

  size_t size() const { return Cumulative.size(); }

private:
  std::vector<double> Cumulative;
};

/// Which discrete sampler draws each component of a Markov chain.
enum class SamplerKind { Alias, CDF };

/// Walks a homogeneous Markov chain: the first draw comes from the initial
/// distribution, subsequent draws from the row of the previous state
/// (Algorithm 1, lines 5-8).
///
/// Every paper configuration is w_qd*Pqd + w_gc*Pgc + w_rp*Prp, the rank-1
/// qDrift matrix plus a few MCFP entries per row, so the sampler splits
/// the dense matrix P it receives by column minima:
///
///   m_j = min_i P_ij,  W = sum_j m_j,  R_ij = P_ij - m_j >= 0,
///   S_i = sum_j R_ij,  t_i = W / (W + S_i).
///
/// A step from state i draws a coin u < t_i (skipped when t_i is 0 or 1);
/// heads draws from one table over m shared by every row, tails from row
/// i's table over its nonzero R_ij. In exact arithmetic that is
/// P_ij / sum_j P_ij, the dense row's law. The split is a pure function of
/// the matrix bits, so a reloaded matrix rebuilds identical tables.
class MarkovChainSampler {
public:
  /// Prepares the shared and per-row tables of \p Matrix and the table of
  /// \p Initial. Throws std::invalid_argument when a row or the initial
  /// distribution has a negative or non-finite entry or sums to zero.
  MarkovChainSampler(const TransitionMatrix &Matrix,
                     const std::vector<double> &Initial,
                     SamplerKind Kind = SamplerKind::Alias);

  /// Stateless, thread-safe draw from the initial distribution. With
  /// stepFrom() this is the per-step reference that the walk tests check
  /// walk()'s fused loop against; compilation always walks.
  size_t initial(RNG &Rng) const;

  /// Stateless, thread-safe draw from the row of \p State (see initial()).
  size_t stepFrom(size_t State, RNG &Rng) const;

  /// Runs one walk of \p Count states, an initial draw and then Count - 1
  /// steps, and calls \p Visit(State) on each state in walk order. Draws
  /// exactly what initial() and stepFrom() would, and leaves \p Rng where
  /// they would. This is the only walk loop. It runs on a local copy of the
  /// generator, so the state stays in registers, and the visitor inlines
  /// into it: state k is visited once step k + 1 is drawn, so the
  /// visitor's work (core/Emitter's per-shot fold, say) overlaps the
  /// walk's serial chain of table loads instead of stalling it.
  template <class Visitor>
  __attribute__((always_inline)) void walk(RNG &Rng, size_t Count,
                                           Visitor &&Visit) const {
    if (Kind == SamplerKind::Alias)
      walkWith<SamplerKind::Alias>(Rng, Count, Visit);
    else
      walkWith<SamplerKind::CDF>(Rng, Count, Visit);
  }

  /// Fills \p Out[0, Count) with one walk (see the visitor form).
  void walk(RNG &Rng, size_t *Out, size_t Count) const;

  /// Number of states in the chain.
  size_t numStates() const { return Rows.size() - 1; }

  SamplerKind kind() const { return Kind; }

  /// Bytes held by the sampling tables (the LRU charge of the sampler).
  size_t bytes() const;

  /// Number of per-row table cells, summed over rows: the nonzeros of R.
  size_t numRowCells() const;

  /// True when some column minimum is positive (W > 0).
  bool hasSharedTable() const { return Shared > 0.0; }

  /// The distribution stepFrom(\p State) draws from, as implied by the
  /// tables: t_i times the shared law plus (1 - t_i) times the row law.
  std::vector<double> rowLaw(size_t State) const;

private:
  /// Row i's coin t_i and its cells [Begin, Begin + Size); alias rows draw
  /// their cell with Draw (bound Size).
  struct Row {
    double Coin;
    uint32_t Begin;
    uint32_t Size;
    BoundedDraw Draw;
  };
  /// One alias cell: keep Own with probability Prob, else take Alias.
  struct AliasCell {
    double Prob;
    uint32_t Own;
    uint32_t Alias;
  };

  template <SamplerKind K> size_t step(size_t State, RNG &Rng) const;
  template <SamplerKind K, class Visitor>
  void walkWith(RNG &Rng, size_t Count, Visitor &Visit) const;

  SamplerKind Kind;
  double Shared = 0.0; // W
  /// Tables of the kind in use; the other kind's stay empty.
  AliasSampler InitialAlias;
  CDFSampler InitialCDF, SharedCDF;
  /// One row per state, then Rows[numStates()] for the shared alias table
  /// (Size 0 without one, and for the CDF kind).
  std::vector<Row> Rows;
  /// Alias kind: the cells of every row, then those of the shared table.
  std::vector<AliasCell> AliasCells;
  /// CDF rows: running sums over each row's cells and their columns.
  std::vector<double> CDFCumulative;
  std::vector<uint32_t> CDFCols;
};

// Always inlined: in walkWith that keeps the generator in registers.
template <SamplerKind K>
__attribute__((always_inline)) inline size_t
MarkovChainSampler::step(size_t State, RNG &Rng) const {
  assert(State < numStates() && "chain state out of range");
  const Row &R = Rows[State];
  // Heads (the shared table) always when t_i is 1, never when it is 0.
  bool Heads = R.Coin == 1.0;
  if (R.Coin > 0.0 && !Heads)
    Heads = Rng.uniform() < R.Coin;
  if constexpr (K == SamplerKind::Alias) {
    // Both tables draw a cell and then a uniform, so the coin only picks
    // which table's bound rejects and which cell comes out. Reducing X
    // for both tables keeps the coin off the path to the multiplies.
    const Row &SharedTable = Rows[numStates()];
    const Row &Table = Rows[detail::pick(Heads, numStates(), State)];
    uint64_t X = Rng.next();
    while (X < Table.Draw.threshold())
      X = Rng.next();
    const AliasCell &C = AliasCells[detail::pick<size_t>(
        Heads, SharedTable.Begin + SharedTable.Draw.mod(X),
        R.Begin + R.Draw.mod(X))];
    return detail::pick(Rng.uniform() < C.Prob, C.Own, C.Alias);
  } else {
    if (Heads)
      return SharedCDF.sample(Rng);
    return CDFCols[R.Begin + detail::quantileIndex(&CDFCumulative[R.Begin],
                                                   R.Size, Rng.uniform())];
  }
}

template <SamplerKind K, class Visitor>
__attribute__((always_inline)) inline void
MarkovChainSampler::walkWith(RNG &Caller, size_t Count,
                             Visitor &Visit) const {
  if (Count == 0)
    return;
  // A visitor that stores states writes 64-bit words, as the generator
  // state is, so it would force the caller's state through memory every
  // step.
  RNG Rng = Caller;
  size_t State = K == SamplerKind::Alias ? InitialAlias.sample(Rng)
                                         : InitialCDF.sample(Rng);
  // State k is visited after step k + 1 is issued, so a branch the
  // visitor mispredicts on state k does not hold the next step back.
  for (size_t I = 1; I < Count; ++I) {
    size_t Next = step<K>(State, Rng);
    Visit(State);
    State = Next;
  }
  Visit(State);
  Caller = Rng;
}

} // namespace marqsim

#endif // MARQSIM_MARKOV_SAMPLER_H
