//===- markov/Sampler.cpp - Discrete and Markov-chain sampling --------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "markov/Sampler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

using namespace marqsim;

namespace {

/// Validates weights \p W[0, N) and returns their left-to-right sum.
double checkedTotal(const double *W, size_t N, const char *What) {
  if (N == 0)
    throw std::invalid_argument(std::string(What) + ": empty distribution");
  double Total = 0.0;
  for (size_t I = 0; I < N; ++I) {
    if (!(W[I] >= 0.0) || !std::isfinite(W[I]))
      throw std::invalid_argument(std::string(What) +
                                  ": negative or non-finite weight at " +
                                  std::to_string(I));
    Total += W[I];
  }
  if (!(Total > 0.0) || !std::isfinite(Total))
    throw std::invalid_argument(std::string(What) +
                                ": weights must have a positive finite sum");
  return Total;
}

/// Vose's stable alias construction over \p W[0, N) summing to \p Total:
/// scale weights to mean 1, then pair each under-full cell with an
/// over-full donor. Fills \p Prob and \p Alias (indices into W).
void buildAlias(const double *W, size_t N, double Total, double *Prob,
                uint32_t *Alias) {
  std::vector<double> Scaled(N);
  for (size_t I = 0; I < N; ++I) {
    Scaled[I] = W[I] * static_cast<double>(N) / Total;
    Prob[I] = 0.0;
    Alias[I] = 0;
  }

  std::vector<uint32_t> Small, Large;
  Small.reserve(N);
  Large.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    if (Scaled[I] < 1.0)
      Small.push_back(static_cast<uint32_t>(I));
    else
      Large.push_back(static_cast<uint32_t>(I));
  }
  while (!Small.empty() && !Large.empty()) {
    uint32_t S = Small.back();
    Small.pop_back();
    uint32_t L = Large.back();
    Large.pop_back();
    Prob[S] = Scaled[S];
    Alias[S] = L;
    Scaled[L] = (Scaled[L] + Scaled[S]) - 1.0;
    if (Scaled[L] < 1.0)
      Small.push_back(L);
    else
      Large.push_back(L);
  }
  // Leftovers are numerically 1.
  for (uint32_t I : Large)
    Prob[I] = 1.0;
  for (uint32_t I : Small)
    Prob[I] = 1.0;
}

/// The index a quantile \p U selects in running sums \p Cum[0, N), clamped
/// to the last entry that adds weight (see CDFSampler::indexForQuantile).
size_t quantileIndex(const double *Cum, size_t N, double U) {
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

} // namespace

//===----------------------------------------------------------------------===//
// AliasSampler / CDFSampler
//===----------------------------------------------------------------------===//

AliasSampler::AliasSampler(const std::vector<double> &Weights) {
  const size_t N = Weights.size();
  double Total = checkedTotal(Weights.data(), N, "alias table");
  Prob.resize(N);
  Alias.resize(N);
  buildAlias(Weights.data(), N, Total, Prob.data(), Alias.data());
}

size_t AliasSampler::sample(RNG &Rng) const {
  assert(!Prob.empty() && "sampling from an unbuilt alias table");
  size_t Cell = Rng.uniformInt(Prob.size());
  return Rng.uniform() < Prob[Cell] ? Cell : Alias[Cell];
}

std::vector<double> AliasSampler::law() const {
  std::vector<double> L(Prob.size(), 0.0);
  const double Cell = 1.0 / static_cast<double>(Prob.size());
  for (size_t I = 0; I < Prob.size(); ++I) {
    L[I] += Prob[I] * Cell;
    L[Alias[I]] += (1.0 - Prob[I]) * Cell;
  }
  return L;
}

CDFSampler::CDFSampler(const std::vector<double> &Weights) {
  checkedTotal(Weights.data(), Weights.size(), "CDF table");
  Cumulative.resize(Weights.size());
  double Acc = 0.0;
  for (size_t I = 0; I < Weights.size(); ++I) {
    Acc += Weights[I];
    Cumulative[I] = Acc;
  }
}

size_t CDFSampler::sample(RNG &Rng) const {
  assert(!Cumulative.empty() && "sampling from an unbuilt CDF table");
  return indexForQuantile(Rng.uniform());
}

size_t CDFSampler::indexForQuantile(double U) const {
  assert(!Cumulative.empty() && "querying an unbuilt CDF table");
  return quantileIndex(Cumulative.data(), Cumulative.size(), U);
}

std::vector<double> CDFSampler::law() const {
  std::vector<double> L(Cumulative.size());
  double Prev = 0.0;
  for (size_t I = 0; I < Cumulative.size(); ++I) {
    L[I] = (Cumulative[I] - Prev) / Cumulative.back();
    Prev = Cumulative[I];
  }
  return L;
}

//===----------------------------------------------------------------------===//
// MarkovChainSampler
//===----------------------------------------------------------------------===//

MarkovChainSampler::MarkovChainSampler(const TransitionMatrix &Matrix,
                                       const std::vector<double> &Initial,
                                       SamplerKind K)
    : Kind(K) {
  const size_t N = Matrix.size();
  if (Initial.size() != N)
    throw std::invalid_argument(
        "Markov chain: initial distribution size mismatch");
  if (Kind == SamplerKind::Alias)
    InitialAlias = AliasSampler(Initial);
  else
    InitialCDF = CDFSampler(Initial);

  // Column minima m_j. Every row is validated before it is read.
  std::vector<double> Min(Matrix.row(0), Matrix.row(0) + N);
  for (size_t I = 0; I < N; ++I) {
    const double *P = Matrix.row(I);
    checkedTotal(P, N, ("Markov chain row " + std::to_string(I)).c_str());
    for (size_t J = 0; J < N; ++J)
      Min[J] = std::min(Min[J], P[J]);
  }
  for (double M : Min)
    Shared += M;
  if (Shared > 0.0) {
    if (Kind == SamplerKind::Alias)
      SharedAlias = AliasSampler(Min);
    else
      SharedCDF = CDFSampler(Min);
  }

  // Row residuals R_ij = P_ij - m_j (exactly >= 0: P_ij >= m_j and
  // rounding is monotone), kept sparse.
  Rows.resize(N);
  std::vector<double> Weights, Prob;
  std::vector<uint32_t> Cols, Alias;
  for (size_t I = 0; I < N; ++I) {
    const double *P = Matrix.row(I);
    Weights.clear();
    Cols.clear();
    double Residual = 0.0; // S_i
    for (size_t J = 0; J < N; ++J) {
      double R = P[J] - Min[J];
      if (R > 0.0) {
        Weights.push_back(R);
        Cols.push_back(static_cast<uint32_t>(J));
        Residual += R;
      }
    }
    const size_t Size = Weights.size();
    Row &Out = Rows[I];
    Out.Coin = Shared / (Shared + Residual);
    Out.Size = static_cast<uint32_t>(Size);
    if (Kind == SamplerKind::Alias) {
      Out.Begin = static_cast<uint32_t>(AliasCells.size());
      if (Size == 0)
        continue;
      Prob.resize(Size);
      Alias.resize(Size);
      buildAlias(Weights.data(), Size, Residual, Prob.data(), Alias.data());
      for (size_t C = 0; C < Size; ++C)
        AliasCells.push_back({Prob[C], Cols[C], Cols[Alias[C]]});
    } else {
      Out.Begin = static_cast<uint32_t>(CDFCumulative.size());
      double Acc = 0.0;
      for (size_t C = 0; C < Size; ++C) {
        Acc += Weights[C];
        CDFCumulative.push_back(Acc);
        CDFCols.push_back(Cols[C]);
      }
    }
  }
}

template <SamplerKind K>
size_t MarkovChainSampler::step(size_t State, RNG &Rng) const {
  assert(State < Rows.size() && "chain state out of range");
  const Row &R = Rows[State];
  if (R.Coin == 1.0 || (R.Coin > 0.0 && Rng.uniform() < R.Coin))
    return K == SamplerKind::Alias ? SharedAlias.sample(Rng)
                                   : SharedCDF.sample(Rng);
  if constexpr (K == SamplerKind::Alias) {
    const AliasCell &C = AliasCells[R.Begin + Rng.uniformInt(R.Size)];
    return Rng.uniform() < C.Prob ? C.Own : C.Alias;
  } else {
    return CDFCols[R.Begin + quantileIndex(&CDFCumulative[R.Begin], R.Size,
                                           Rng.uniform())];
  }
}

template <SamplerKind K>
void MarkovChainSampler::walkWith(RNG &Rng, size_t *Out, size_t Count) const {
  if (Count == 0)
    return;
  size_t State = initial(Rng);
  Out[0] = State;
  for (size_t I = 1; I < Count; ++I) {
    State = step<K>(State, Rng);
    Out[I] = State;
  }
}

size_t MarkovChainSampler::initial(RNG &Rng) const {
  return Kind == SamplerKind::Alias ? InitialAlias.sample(Rng)
                                    : InitialCDF.sample(Rng);
}

size_t MarkovChainSampler::stepFrom(size_t State, RNG &Rng) const {
  return Kind == SamplerKind::Alias ? step<SamplerKind::Alias>(State, Rng)
                                    : step<SamplerKind::CDF>(State, Rng);
}

void MarkovChainSampler::walk(RNG &Rng, size_t *Out, size_t Count) const {
  if (Kind == SamplerKind::Alias)
    walkWith<SamplerKind::Alias>(Rng, Out, Count);
  else
    walkWith<SamplerKind::CDF>(Rng, Out, Count);
}

size_t MarkovChainSampler::next(RNG &Rng) {
  Current = Current == kNoState ? initial(Rng) : stepFrom(Current, Rng);
  return Current;
}

size_t MarkovChainSampler::bytes() const {
  auto AliasBytes = [](const AliasSampler &A) {
    return A.size() * (sizeof(double) + sizeof(uint32_t));
  };
  auto CDFBytes = [](const CDFSampler &C) { return C.size() * sizeof(double); };
  return AliasBytes(InitialAlias) + AliasBytes(SharedAlias) +
         CDFBytes(InitialCDF) + CDFBytes(SharedCDF) +
         Rows.size() * sizeof(Row) + AliasCells.size() * sizeof(AliasCell) +
         CDFCumulative.size() * sizeof(double) +
         CDFCols.size() * sizeof(uint32_t);
}

size_t MarkovChainSampler::numRowCells() const {
  return AliasCells.size() + CDFCumulative.size();
}

std::vector<double> MarkovChainSampler::rowLaw(size_t State) const {
  assert(State < Rows.size() && "chain state out of range");
  const Row &R = Rows[State];
  std::vector<double> L(Rows.size(), 0.0);
  if (R.Coin > 0.0) {
    std::vector<double> S =
        Kind == SamplerKind::Alias ? SharedAlias.law() : SharedCDF.law();
    for (size_t J = 0; J < L.size(); ++J)
      L[J] = R.Coin * S[J];
  }
  if (R.Coin == 1.0 || R.Size == 0)
    return L;
  const double Tails = 1.0 - R.Coin;
  if (Kind == SamplerKind::Alias) {
    const double Cell = Tails / static_cast<double>(R.Size);
    for (uint32_t C = R.Begin; C < R.Begin + R.Size; ++C) {
      L[AliasCells[C].Own] += AliasCells[C].Prob * Cell;
      L[AliasCells[C].Alias] += (1.0 - AliasCells[C].Prob) * Cell;
    }
  } else {
    const double Total = CDFCumulative[R.Begin + R.Size - 1];
    double Prev = 0.0;
    for (uint32_t C = R.Begin; C < R.Begin + R.Size; ++C) {
      L[CDFCols[C]] += Tails * (CDFCumulative[C] - Prev) / Total;
      Prev = CDFCumulative[C];
    }
  }
  return L;
}
