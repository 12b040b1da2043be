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
/// by every row plus a sparse table per row (see its comment).
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_MARKOV_SAMPLER_H
#define MARQSIM_MARKOV_SAMPLER_H

#include "markov/TransitionMatrix.h"
#include "support/RNG.h"

#include <cassert>
#include <cstdint>

namespace marqsim {

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

  /// Draws the next state and advances the chain.
  size_t next(RNG &Rng);

  /// Stateless draw from the initial distribution. Thread-safe: batch
  /// compilation shares one sampler read-only across workers, each walking
  /// its own chain state.
  size_t initial(RNG &Rng) const;

  /// Stateless draw from the row of \p State. Thread-safe (see initial()).
  size_t stepFrom(size_t State, RNG &Rng) const;

  /// Fills \p Out[0, Count) with one walk: an initial draw, then Count - 1
  /// steps. Draws exactly what initial() and stepFrom() would, and leaves
  /// \p Rng where they would; the walk itself runs on a local copy of the
  /// generator, so the state stays in registers across the stores to Out.
  void walk(RNG &Rng, size_t *Out, size_t Count) const;

  /// Resets to the pre-first-draw state (next draw uses the initial
  /// distribution again).
  void reset() { Current = kNoState; }

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
  static constexpr size_t kNoState = static_cast<size_t>(-1);

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
  template <SamplerKind K> void walkWith(RNG &Rng, size_t *Out,
                                         size_t Count) const;

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
  size_t Current = kNoState;
};

} // namespace marqsim

#endif // MARQSIM_MARKOV_SAMPLER_H
