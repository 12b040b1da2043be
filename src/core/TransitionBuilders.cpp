//===- core/TransitionBuilders.cpp - Transition matrix construction ----------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/TransitionBuilders.h"

#include "core/CNOTCountOracle.h"
#include "flow/MinCostFlow.h"

#include <algorithm>
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

/// Shared MCFP skeleton of Algorithm 2: builds the bipartite Prev -> Next
/// network with stationary capacities, costs from \p CostFn (diagonal edges
/// omitted), solves it, and extracts the transition matrix
/// p_ij = f_ij / pi_i. Throws std::invalid_argument when a term's
/// stationary weight exceeds 1/2 (Theorem 5.1), which makes the network
/// infeasible.
static TransitionMatrix
solveFlowMatrix(const Hamiltonian &H, const MCFPOptions &Opts,
                const std::function<int64_t(size_t, size_t)> &CostFn) {
  const size_t N = H.numTerms();
  assert(N >= 2 && "the flow model needs at least two terms");
  std::vector<double> Pi = H.stationaryDistribution();
  auto Offending = [&](size_t I) {
    return "term " + std::to_string(I) + " (" +
           H.term(I).String.str(H.numQubits()) + ") has pi = " +
           std::to_string(Pi[I]);
  };
  for (size_t I = 0; I < N; ++I)
    if (Pi[I] > 0.5 + 1e-12)
      throw std::invalid_argument(
          "MCFP builder: " + Offending(I) +
          " > 0.5; split the Hamiltonian first (Theorem 5.1)");
  std::vector<int64_t> Units = quantize(Pi, Opts.ProbScale);

  // Node layout: 0 = S, 1..N = Prev, N+1..2N = Next, 2N+1 = T.
  const size_t S = 0, T = 2 * N + 1;
  auto PrevNode = [](size_t I) { return 1 + I; };
  auto NextNode = [N](size_t J) { return 1 + N + J; };

  // Edge ids: S -> Prev edges 0..N-1, then the dense Prev -> Next edges
  // row-major without the diagonal, then the Next -> T edges.
  auto MiddleEdgeId = [N](size_t I, size_t J) {
    return N + I * (N - 1) + J - (J > I);
  };
  MinCostFlow Net(2 * N + 2);
  for (size_t I = 0; I < N; ++I)
    Net.addEdge(S, PrevNode(I), Units[I], 0);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      if (I == J)
        continue; // excluded to rule out the trivial identity matrix
      [[maybe_unused]] size_t Id =
          Net.addEdge(PrevNode(I), NextNode(J),
                      MinCostFlow::kInfiniteCapacity, CostFn(I, J));
      assert(Id == MiddleEdgeId(I, J) && "middle edge id layout");
    }
  for (size_t J = 0; J < N; ++J)
    Net.addEdge(NextNode(J), T, Units[J], 0);

  MinCostFlow::Result Result = Net.solve(S, T, Opts.ProbScale);
  if (!Result.Feasible) {
    // Quantization can push a weight at the 1/2 boundary over it; name the
    // heaviest term, the one that cannot route all of its flow.
    size_t Heaviest = static_cast<size_t>(
        std::max_element(Units.begin(), Units.end()) - Units.begin());
    throw std::invalid_argument("MCFP builder: network infeasible; " +
                                Offending(Heaviest) +
                                " (quantized weights violate pi_i <= 0.5)");
  }

  TransitionMatrix P(N);
  for (size_t I = 0; I < N; ++I) {
    if (Units[I] == 0) {
      // A term whose stationary weight quantized to zero carries no flow;
      // give it the qDrift row (it is (almost) never visited anyway).
      for (size_t J = 0; J < N; ++J)
        P.at(I, J) = Pi[J];
      continue;
    }
    for (size_t J = 0; J < N; ++J) {
      if (I == J)
        continue;
      P.at(I, J) = static_cast<double>(Net.flowOnEdge(MiddleEdgeId(I, J))) /
                   static_cast<double>(Units[I]);
    }
  }
  return P;
}

TransitionMatrix
marqsim::buildGateCancellation(const Hamiltonian &H, const MCFPOptions &Opts) {
  std::vector<std::vector<unsigned>> Cost = cnotCostTable(H);
  return solveFlowMatrix(H, Opts, [&](size_t I, size_t J) {
    return Opts.CostScale * static_cast<int64_t>(Cost[I][J]);
  });
}

TransitionMatrix
marqsim::buildFromCostTable(const Hamiltonian &H,
                            const std::vector<std::vector<int64_t>> &Cost,
                            const MCFPOptions &Opts) {
  assert(Cost.size() == H.numTerms() && "cost table size mismatch");
  return solveFlowMatrix(
      H, Opts, [&](size_t I, size_t J) { return Cost[I][J]; });
}

TransitionMatrix marqsim::buildRandomPerturbation(const Hamiltonian &H,
                                                  unsigned Rounds, RNG &Rng,
                                                  const MCFPOptions &Opts) {
  assert(Rounds > 0 && "perturbation averaging needs at least one round");
  std::vector<std::vector<unsigned>> Cost = cnotCostTable(H);
  const size_t N = H.numTerms();

  TransitionMatrix Sum(N);
  std::vector<int64_t> Perturbed(N * N); // row-major, reused every round
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    // Independent epsilon per edge: +1 CNOT with probability 1/2
    // (the paper's perturbation configuration, Section 6.1). Draws run
    // row-major over the full table, diagonal included.
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        Perturbed[I * N + J] =
            Opts.CostScale * static_cast<int64_t>(Cost[I][J]) +
            (Rng.bernoulli(0.5) ? Opts.CostScale : 0);
    TransitionMatrix P = solveFlowMatrix(
        H, Opts, [&](size_t I, size_t J) { return Perturbed[I * N + J]; });
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        Sum.at(I, J) += P.at(I, J);
  }
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      Sum.at(I, J) /= Rounds;
  return Sum;
}

TransitionMatrix
marqsim::buildCommutationGrouping(const Hamiltonian &H,
                                  const MCFPOptions &Opts) {
  return solveFlowMatrix(H, Opts, [&](size_t I, size_t J) {
    bool Commute =
        H.term(I).String.commutesWith(H.term(J).String);
    return Commute ? 0 : Opts.CostScale;
  });
}

TransitionMatrix marqsim::combineWithQDrift(const Hamiltonian &H,
                                            const TransitionMatrix &P,
                                            double Theta) {
  assert(Theta > 0.0 && Theta <= 1.0 && "qDrift weight must be in (0, 1]");
  TransitionMatrix Pqd = buildQDrift(H);
  return TransitionMatrix::combine({&Pqd, &P}, {Theta, 1.0 - Theta});
}

TransitionMatrix marqsim::makeConfigMatrix(const Hamiltonian &H, double WQd,
                                           double WGc, double WRp,
                                           unsigned PerturbationRounds,
                                           uint64_t Seed,
                                           const MCFPOptions &Opts) {
  assert(std::fabs(WQd + WGc + WRp - 1.0) <= 1e-9 &&
         "configuration weights must sum to 1");
  std::vector<const TransitionMatrix *> Parts;
  std::vector<double> Weights;
  TransitionMatrix Pqd, Pgc, Prp;
  if (WQd > 0.0) {
    Pqd = buildQDrift(H);
    Parts.push_back(&Pqd);
    Weights.push_back(WQd);
  }
  if (WGc > 0.0) {
    Pgc = buildGateCancellation(H, Opts);
    Parts.push_back(&Pgc);
    Weights.push_back(WGc);
  }
  if (WRp > 0.0) {
    RNG Rng(Seed);
    Prp = buildRandomPerturbation(H, PerturbationRounds, Rng, Opts);
    Parts.push_back(&Prp);
    Weights.push_back(WRp);
  }
  assert(!Parts.empty() && "all configuration weights are zero");
  return TransitionMatrix::combine(Parts, Weights);
}
