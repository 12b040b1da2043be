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

/// Cond ? A : B by masking, so the compiler cannot turn it into a branch:
/// the walk's coin and alias tests are close to fair flips, which a branch
/// would mispredict about half the time.
template <typename T> T pick(bool Cond, T A, T B) {
  return B ^ ((A ^ B) & (T(0) - T(Cond)));
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
  Draw = BoundedDraw(N);
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
  if (Shared > 0.0 && Kind == SamplerKind::CDF)
    SharedCDF = CDFSampler(Min);

  // Row residuals R_ij = P_ij - m_j (exactly >= 0: P_ij >= m_j and
  // rounding is monotone), kept sparse.
  Rows.resize(N + 1);
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
      Out.Draw = BoundedDraw(Size);
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

  // Rows[N] describes the shared alias table, whose cells follow the row
  // cells: the same table AliasSampler(Min) builds (Shared is Min's
  // left-to-right sum). Its Size stays 0 without one.
  Row &SharedRow = Rows[N];
  SharedRow.Coin = 1.0;
  SharedRow.Begin = static_cast<uint32_t>(AliasCells.size());
  SharedRow.Size = 0;
  if (Shared > 0.0 && Kind == SamplerKind::Alias) {
    SharedRow.Size = static_cast<uint32_t>(N);
    SharedRow.Draw = BoundedDraw(N);
    Prob.resize(N);
    Alias.resize(N);
    buildAlias(Min.data(), N, Shared, Prob.data(), Alias.data());
    for (size_t C = 0; C < N; ++C)
      AliasCells.push_back({Prob[C], static_cast<uint32_t>(C), Alias[C]});
  }
}

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
    const Row &Table = Rows[pick(Heads, numStates(), State)];
    uint64_t X = Rng.next();
    while (X < Table.Draw.threshold())
      X = Rng.next();
    const AliasCell &C =
        AliasCells[pick<size_t>(Heads,
                                SharedTable.Begin + SharedTable.Draw.mod(X),
                                R.Begin + R.Draw.mod(X))];
    return pick(Rng.uniform() < C.Prob, C.Own, C.Alias);
  } else {
    if (Heads)
      return SharedCDF.sample(Rng);
    return CDFCols[R.Begin + quantileIndex(&CDFCumulative[R.Begin], R.Size,
                                           Rng.uniform())];
  }
}

template <SamplerKind K>
void MarkovChainSampler::walkWith(RNG &Caller, size_t *Out,
                                  size_t Count) const {
  if (Count == 0)
    return;
  // Out and the generator state are both 64-bit words, so stores to Out
  // would force the caller's state through memory every step.
  RNG Rng = Caller;
  size_t State = K == SamplerKind::Alias ? InitialAlias.sample(Rng)
                                         : InitialCDF.sample(Rng);
  Out[0] = State;
  for (size_t I = 1; I < Count; ++I) {
    State = step<K>(State, Rng);
    Out[I] = State;
  }
  Caller = Rng;
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
  return AliasBytes(InitialAlias) + CDFBytes(InitialCDF) +
         CDFBytes(SharedCDF) +
         Rows.size() * sizeof(Row) + AliasCells.size() * sizeof(AliasCell) +
         CDFCumulative.size() * sizeof(double) +
         CDFCols.size() * sizeof(uint32_t);
}

size_t MarkovChainSampler::numRowCells() const {
  return AliasCells.size() - Rows.back().Size + CDFCumulative.size();
}

std::vector<double> MarkovChainSampler::rowLaw(size_t State) const {
  assert(State < numStates() && "chain state out of range");
  const Row &R = Rows[State];
  std::vector<double> L(numStates(), 0.0);
  // Adds \p Weight times the law of alias table \p T.
  auto AddAliasLaw = [&](const Row &T, double Weight) {
    const double Cell = Weight / static_cast<double>(T.Size);
    for (uint32_t C = T.Begin; C < T.Begin + T.Size; ++C) {
      L[AliasCells[C].Own] += AliasCells[C].Prob * Cell;
      L[AliasCells[C].Alias] += (1.0 - AliasCells[C].Prob) * Cell;
    }
  };
  if (R.Coin > 0.0) {
    if (Kind == SamplerKind::Alias) {
      AddAliasLaw(Rows.back(), R.Coin);
    } else {
      std::vector<double> S = SharedCDF.law();
      for (size_t J = 0; J < L.size(); ++J)
        L[J] = R.Coin * S[J];
    }
  }
  if (R.Coin == 1.0 || R.Size == 0)
    return L;
  const double Tails = 1.0 - R.Coin;
  if (Kind == SamplerKind::Alias) {
    AddAliasLaw(R, Tails);
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
