//===- bench/bench_micro_substrate.cpp - Substrate microbenchmarks -----------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the substrates the compiler is built
// on: Pauli algebra, analytic Pauli-rotation application, discrete
// sampling, the min-cost-flow solver at MarQSim network shapes, spectra
// via Hessenberg QR, schedule emission, and dense matrix exponentials.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/TransitionBuilders.h"
#include "flow/TransportFlow.h"
#include "hamgen/Models.h"
#include "linalg/Expm.h"
#include "markov/Sampler.h"
#include "sim/StateVector.h"

#include <benchmark/benchmark.h>

using namespace marqsim;

static void BM_PauliMultiply(benchmark::State &State) {
  RNG Rng(1);
  std::vector<PauliString> Strings;
  for (int I = 0; I < 256; ++I) {
    PauliString P;
    for (unsigned Q = 0; Q < 32; ++Q)
      P.setOp(Q, static_cast<PauliOpKind>(Rng.uniformInt(4)));
    Strings.push_back(P);
  }
  size_t I = 0;
  for (auto _ : State) {
    int Pow = 0;
    benchmark::DoNotOptimize(
        Strings[I % 256].multiply(Strings[(I + 7) % 256], Pow));
    benchmark::DoNotOptimize(Pow);
    ++I;
  }
}
BENCHMARK(BM_PauliMultiply);

static void BM_ApplyPauliExp(benchmark::State &State) {
  const unsigned N = static_cast<unsigned>(State.range(0));
  RNG Rng(2);
  PauliString P;
  for (unsigned Q = 0; Q < N; ++Q)
    P.setOp(Q, static_cast<PauliOpKind>(Rng.uniformInt(4)));
  StateVector SV(N, 0);
  for (auto _ : State)
    SV.applyPauliExp(P, 0.01);
  State.SetItemsProcessed(State.iterations() * (int64_t(1) << N));
}
BENCHMARK(BM_ApplyPauliExp)->Arg(8)->Arg(12)->Arg(16);

static void BM_AliasSampler(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  RNG Rng(3);
  std::vector<double> W(N);
  for (double &X : W)
    X = Rng.uniform() + 1e-3;
  AliasSampler S(W);
  RNG Draw(4);
  for (auto _ : State)
    benchmark::DoNotOptimize(S.sample(Draw));
}
BENCHMARK(BM_AliasSampler)->Arg(100)->Arg(1000);

static void BM_CDFSampler(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  RNG Rng(5);
  std::vector<double> W(N);
  for (double &X : W)
    X = Rng.uniform() + 1e-3;
  CDFSampler S(W);
  RNG Draw(6);
  for (auto _ : State)
    benchmark::DoNotOptimize(S.sample(Draw));
}
BENCHMARK(BM_CDFSampler)->Arg(100)->Arg(1000);

static void BM_TransportFlowBipartite(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    RNG Rng(7);
    int64_t Scale = 1'000'000;
    std::vector<int64_t> Units(N, Scale / static_cast<int64_t>(N));
    Units[0] += Scale % static_cast<int64_t>(N);
    std::vector<int64_t> Cost(N * N, 0);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        if (I != J)
          Cost[I * N + J] = static_cast<int64_t>(Rng.uniformInt(30));
    State.ResumeTiming();
    TransportFlow Net(N, Cost.data());
    auto R = Net.solve(Units, Units, Scale);
    benchmark::DoNotOptimize(R.TotalCost);
  }
}
BENCHMARK(BM_TransportFlowBipartite)->Arg(60)->Arg(120)->Arg(240)
    ->Unit(benchmark::kMillisecond);

static void BM_SpectrumQR(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  RNG Rng(8);
  TransitionMatrix P(N);
  for (size_t I = 0; I < N; ++I) {
    double Sum = 0;
    std::vector<double> Row(N);
    for (size_t J = 0; J < N; ++J) {
      Row[J] = Rng.uniform() + 1e-3;
      Sum += Row[J];
    }
    for (size_t J = 0; J < N; ++J)
      P.at(I, J) = Row[J] / Sum;
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(P.spectrum());
  State.SetComplexityN(static_cast<int64_t>(N));
}
BENCHMARK(BM_SpectrumQR)->Arg(60)->Arg(120)->Arg(240)
    ->Unit(benchmark::kMillisecond);

static void BM_EmitSchedule(benchmark::State &State) {
  RNG Rng(9);
  Hamiltonian H = makeRandomHamiltonian(16, 64, Rng);
  std::vector<ScheduledRotation> Schedule;
  for (int K = 0; K < 4096; ++K)
    Schedule.emplace_back(H.term(Rng.uniformInt(64)).String, 0.003);
  for (auto _ : State) {
    Circuit C = emitSchedule(Schedule, 16);
    benchmark::DoNotOptimize(C.size());
  }
  State.SetItemsProcessed(State.iterations() * 4096);
}
BENCHMARK(BM_EmitSchedule)->Unit(benchmark::kMillisecond);

static void BM_ExpmDense(benchmark::State &State) {
  const unsigned N = static_cast<unsigned>(State.range(0));
  RNG Rng(10);
  Hamiltonian H = makeRandomHamiltonian(N, 12, Rng);
  Matrix M = H.toMatrix() * Complex(0.0, 0.3);
  for (auto _ : State)
    benchmark::DoNotOptimize(expm(M));
  State.SetComplexityN(int64_t(1) << N);
}
BENCHMARK(BM_ExpmDense)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

static void BM_BuildGateCancellation(benchmark::State &State) {
  const size_t Terms = static_cast<size_t>(State.range(0));
  RNG Rng(11);
  Hamiltonian H =
      makeRandomHamiltonian(12, Terms, Rng).rescaledToLambda(10.0);
  for (auto _ : State)
    benchmark::DoNotOptimize(buildGateCancellation(H).size());
}
BENCHMARK(BM_BuildGateCancellation)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
