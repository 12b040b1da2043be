//===- core/TransitionBuilders.cpp - Transition matrix construction ----------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/TransitionBuilders.h"

#include "core/CNOTCountOracle.h"
#include "flow/TransportFlow.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

using namespace marqsim;

TransitionMatrix marqsim::buildQDrift(const Hamiltonian &H) {
  return TransitionMatrix::fromStationary(H.stationaryDistribution());
}

/// Quantizes \p Pi to integers summing exactly to \p Scale using the
/// largest-remainder method.
static std::vector<int64_t> quantize(const std::vector<double> &Pi,
                                     int64_t Scale) {
  const size_t N = Pi.size();
  std::vector<int64_t> Units(N);
  std::vector<std::pair<double, size_t>> Remainders(N);
  int64_t Total = 0;
  for (size_t I = 0; I < N; ++I) {
    double Exact = Pi[I] * static_cast<double>(Scale);
    Units[I] = static_cast<int64_t>(std::floor(Exact));
    Remainders[I] = {Exact - std::floor(Exact), I};
    Total += Units[I];
  }
  int64_t Missing = Scale - Total;
  assert(Missing >= 0 && Missing <= static_cast<int64_t>(N) &&
         "quantization drift");
  std::sort(Remainders.begin(), Remainders.end(),
            std::greater<std::pair<double, size_t>>());
  for (int64_t K = 0; K < Missing; ++K)
    ++Units[Remainders[static_cast<size_t>(K)].second];
  return Units;
}

namespace {

/// The validated supplies of one Hamiltonian's flow network: its
/// stationary distribution and the quantized capacities of Algorithm 2.
struct FlowSupplies {
  std::vector<double> Pi;
  std::vector<int64_t> Units;
};

} // namespace

/// Checks Theorem 5.1's pi_i <= 1/2, quantizes the supplies and checks that
/// the network routes all of them. Throws std::invalid_argument naming the
/// offending term otherwise.
static FlowSupplies flowSupplies(const Hamiltonian &H,
                                 const MCFPOptions &Opts) {
  const size_t N = H.numTerms();
  assert(N >= 2 && "the flow model needs at least two terms");
  FlowSupplies S{H.stationaryDistribution(), {}};
  auto Offending = [&](size_t I) {
    return "term " + std::to_string(I) + " (" +
           H.term(I).String.str(H.numQubits()) + ") has pi = " +
           std::to_string(S.Pi[I]);
  };
  for (size_t I = 0; I < N; ++I)
    if (S.Pi[I] > 0.5 + 1e-12)
      throw std::invalid_argument(
          "MCFP builder: " + Offending(I) +
          " > 0.5; split the Hamiltonian first (Theorem 5.1)");
  S.Units = quantize(S.Pi, Opts.ProbScale);
  // Supply I may ship to every demand but its own, so the network routes
  // all of ProbScale iff no term holds more than the rest together.
  // Quantization can push a weight at the 1/2 boundary over it; name the
  // heaviest term, the one that cannot route all of its flow.
  size_t Heaviest = static_cast<size_t>(
      std::max_element(S.Units.begin(), S.Units.end()) - S.Units.begin());
  if (S.Units[Heaviest] > Opts.ProbScale - S.Units[Heaviest])
    throw std::invalid_argument("MCFP builder: network infeasible; " +
                                Offending(Heaviest) +
                                " (quantized weights violate pi_i <= 0.5)");
  return S;
}

/// Shared MCFP skeleton of Algorithm 2: solves the bipartite Prev -> Next
/// transportation network with stationary capacities \p S and the cost
/// view Base + bit * Scale over the row-major table \p Base and the draw
/// words \p Draws (TransportFlow; diagonal ignored, so the trivial identity
/// matrix is ruled out), then calls Emit(I, J, p_ij) once for every
/// nonzero entry of p_ij = f_ij / pi_i, read from the solver's inflow
/// lists. A term whose weight quantized to zero carries no flow and
/// gets the qDrift row (it is (almost) never visited).
template <typename EmitFn>
static void solveFlowMatrix(const FlowSupplies &S, const int64_t *Base,
                            const uint64_t *Draws, int64_t Scale,
                            const MCFPOptions &Opts, EmitFn Emit) {
  const size_t N = S.Units.size();
  TransportFlow Net(N, Base, Draws, Scale);
  [[maybe_unused]] TransportFlow::Result Result =
      Net.solve(S.Units, S.Units, Opts.ProbScale);
  assert(Result.Feasible && "flowSupplies admitted an infeasible network");
  Net.forEachFlow([&](size_t I, size_t J, int64_t F) {
    Emit(I, J, static_cast<double>(F) / static_cast<double>(S.Units[I]));
  });
  for (size_t I = 0; I < N; ++I)
    if (S.Units[I] == 0)
      for (size_t J = 0; J < N; ++J)
        Emit(I, J, S.Pi[J]);
}

/// Throws std::invalid_argument unless the cost table \p IsSquare (n x n
/// for H's n terms).
static void requireSquare(const Hamiltonian &H, bool IsSquare) {
  const size_t N = H.numTerms();
  if (!IsSquare)
    throw std::invalid_argument("MCFP builder: cost table is not " +
                                std::to_string(N) + " x " + std::to_string(N));
}

/// solveFlowMatrix of an unperturbed table into a dense matrix.
static TransitionMatrix solveFlowMatrix(const Hamiltonian &H,
                                        const std::vector<int64_t> &Cost,
                                        const MCFPOptions &Opts) {
  requireSquare(H, Cost.size() == H.numTerms() * H.numTerms());
  FlowSupplies S = flowSupplies(H, Opts);
  TransitionMatrix P(H.numTerms());
  solveFlowMatrix(S, Cost.data(), nullptr, 0, Opts,
                  [&](size_t I, size_t J, double V) { P.at(I, J) = V; });
  return P;
}

TransitionMatrix
marqsim::buildGateCancellation(const Hamiltonian &H, const MCFPOptions &Opts) {
  return solveFlowMatrix(H, scaledCnotCosts(H, Opts.CostScale), Opts);
}

TransitionMatrix
marqsim::buildGateCancellation(const Hamiltonian &H,
                               const std::vector<int64_t> &CnotCosts,
                               const MCFPOptions &Opts) {
  return solveFlowMatrix(H, CnotCosts, Opts);
}

TransitionMatrix
marqsim::buildFromCostTable(const Hamiltonian &H,
                            const std::vector<std::vector<int64_t>> &Cost,
                            const MCFPOptions &Opts) {
  const size_t N = H.numTerms();
  auto Square = [N](const std::vector<int64_t> &Row) {
    return Row.size() == N;
  };
  requireSquare(H, Cost.size() == N &&
                      std::all_of(Cost.begin(), Cost.end(), Square));
  std::vector<int64_t> Flat(N * N);
  for (size_t I = 0; I < N; ++I)
    std::copy(Cost[I].begin(), Cost[I].end(), Flat.begin() + I * N);
  return solveFlowMatrix(H, Flat, Opts);
}

TransitionMatrix marqsim::buildRandomPerturbation(const Hamiltonian &H,
                                                  unsigned Rounds, RNG &Rng,
                                                  const MCFPOptions &Opts,
                                                  unsigned Jobs) {
  return buildRandomPerturbation(H, scaledCnotCosts(H, Opts.CostScale),
                                 Rounds, Rng, Opts, Jobs);
}

TransitionMatrix marqsim::buildRandomPerturbation(
    const Hamiltonian &H, std::vector<int64_t> CnotCosts, unsigned Rounds,
    RNG &Rng, const MCFPOptions &Opts, unsigned Jobs) {
  assert(Rounds > 0 && "perturbation averaging needs at least one round");
  const size_t N = H.numTerms();
  // Everything that can reject the input is checked here, once, so every
  // Jobs value throws the same error before any round starts.
  requireSquare(H, CnotCosts.size() == N * N);
  const FlowSupplies S = flowSupplies(H, Opts);
  if (Opts.CostScale < 0)
    throw std::invalid_argument("MCFP builder: negative cost scale " +
                                std::to_string(Opts.CostScale));

  // Independent epsilon per edge: +1 CNOT with probability 1/2 (the
  // paper's perturbation configuration, Section 6.1). The draws run
  // serially, row-major over the full table with the diagonal included,
  // round after round, so the caller's RNG ends where it always did.
  const size_t Words = (N * N + 63) / 64;
  std::vector<std::vector<uint64_t>> Bits(Rounds,
                                          std::vector<uint64_t>(Words, 0));
  for (std::vector<uint64_t> &Round : Bits)
    Rng.coinFlips(Round.data(), N * N);

  // The rounds are independent once their draws are fixed. Each one reads
  // its costs as the view CnotCosts + draw * CostScale, so no perturbed
  // table is written, and keeps only its nonzero entries.
  struct Entry {
    size_t I, J;
    double Value;
  };
  std::vector<std::vector<Entry>> Solved(Rounds);
  parallelFor(Rounds, Jobs, [&](size_t Round) {
    solveFlowMatrix(S, CnotCosts.data(), Bits[Round].data(), Opts.CostScale,
                    Opts, [&](size_t I, size_t J, double V) {
                      Solved[Round].push_back({I, J, V});
                    });
  });
  // Only the entries are needed from here on: release the table and the
  // draws before the sum's matrix is allocated.
  std::vector<int64_t>().swap(CnotCosts);
  std::vector<std::vector<uint64_t>>().swap(Bits);

  // Sum in round order and divide once. A round emits each (I, J) at most
  // once, so the order inside a round cannot change a sum; its omitted
  // entries are +0.0, and adding +0.0 to a non-negative sum leaves every
  // bit as is.
  TransitionMatrix Sum(N);
  for (const std::vector<Entry> &Round : Solved)
    for (const Entry &E : Round)
      Sum.at(E.I, E.J) += E.Value;
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      Sum.at(I, J) /= Rounds;
  return Sum;
}

TransitionMatrix
marqsim::buildCommutationGrouping(const Hamiltonian &H,
                                  const MCFPOptions &Opts) {
  const size_t N = H.numTerms();
  std::vector<int64_t> Cost(N * N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      Cost[I * N + J] =
          H.term(I).String.commutesWith(H.term(J).String) ? 0 : Opts.CostScale;
  return solveFlowMatrix(H, Cost, Opts);
}

TransitionMatrix marqsim::combineWithQDrift(const Hamiltonian &H,
                                            const TransitionMatrix &P,
                                            double Theta) {
  assert(Theta > 0.0 && Theta <= 1.0 && "qDrift weight must be in (0, 1]");
  return TransitionMatrix::combine(H.stationaryDistribution(), Theta, {&P},
                                   {1.0 - Theta});
}

TransitionMatrix marqsim::makeConfigMatrix(const Hamiltonian &H, double WQd,
                                           double WGc, double WRp,
                                           unsigned PerturbationRounds,
                                           uint64_t Seed,
                                           const MCFPOptions &Opts) {
  assert(std::fabs(WQd + WGc + WRp - 1.0) <= 1e-9 &&
         "configuration weights must sum to 1");
  assert((WQd > 0.0 || WGc > 0.0 || WRp > 0.0) &&
         "all configuration weights are zero");
  std::vector<const TransitionMatrix *> Parts;
  std::vector<double> Weights;
  TransitionMatrix Pgc, Prp;
  // Pgc and Prp read one CNOT table; Prp, its last reader, releases it.
  std::vector<int64_t> CnotCosts;
  if (WGc > 0.0 || WRp > 0.0)
    CnotCosts = scaledCnotCosts(H, Opts.CostScale);
  if (WGc > 0.0) {
    Pgc = buildGateCancellation(H, CnotCosts, Opts);
    Parts.push_back(&Pgc);
    Weights.push_back(WGc);
  }
  if (WRp > 0.0) {
    RNG Rng(Seed);
    Prp = buildRandomPerturbation(H, std::move(CnotCosts), PerturbationRounds,
                                  Rng, Opts);
    Parts.push_back(&Prp);
    Weights.push_back(WRp);
  }
  std::vector<int64_t>().swap(CnotCosts);
  return TransitionMatrix::combine(H.stationaryDistribution(), WQd, Parts,
                                   Weights);
}
