//===- tests/NoiseTest.cpp - Noisy-simulation workload tier -------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The contracts of the noise tier (sim/NoiseModel.h):
//   * every Kraus set — exact and twirled — satisfies sum K^dag K = I and
//     preserves the trace through DensityMatrix::applyChannel,
//   * the stochastic tier's injection is a pure function of the RNG
//     stream (same draws -> same schedule, noiseless schedule embedded as
//     an ordered subsequence),
//   * the *exact* expectation of the injected state fidelity over all
//     error patterns equals the density oracle,
//   * for every channel in both modes, the noisy batch hash equals the
//     noiseless one, noise lowers the fidelity, and the stochastic mean
//     tracks the density oracle,
//   * noisy batches are bit-identical across --jobs/--eval-jobs values
//     and across shard splits (in-process runShard + merge),
//   * every density-mode task, deterministic ones included, is evaluated
//     by the direct oracle NoiseModel::densityFidelity and caches nothing
//     but its fidelity columns,
//   * a frozen fixed-seed golden pins the noisy fidelity bits and the
//     invariant that noise never perturbs the compiled circuits.
//
//===----------------------------------------------------------------------===//

#include "service/SimulationService.h"
#include "shard/ShardCoordinator.h"
#include "shard/ShardManifest.h"
#include "sim/DensityMatrix.h"
#include "sim/Fidelity.h"
#include "sim/NoiseModel.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

using namespace marqsim;

namespace {

constexpr double HalfPi = 1.5707963267948966;

/// A 3-qubit Hamiltonian small enough for the density oracle, interacting
/// enough to produce non-trivial schedules.
Hamiltonian noiseHamiltonian() {
  return Hamiltonian::parse({{0.9, "XZI"},
                             {0.6, "IYX"},
                             {0.5, "ZIZ"},
                             {0.3, "YXI"}});
}

/// Every channel that injects noise.
constexpr NoiseChannelKind NoisyChannels[] = {
    NoiseChannelKind::Depolarizing, NoiseChannelKind::PhaseFlip,
    NoiseChannelKind::AmplitudeDamping};

/// A noisy sampling spec over the 3-qubit operator.
TaskSpec noisySamplingSpec() {
  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(noiseHamiltonian());
  Spec.Mix = *ChannelMix::preset("gc");
  Spec.Time = 0.5;
  Spec.Epsilon = 0.3;
  Spec.Shots = 6;
  Spec.Seed = 20240;
  Spec.Evaluate.FidelityColumns = 4;
  Spec.Noise.Kind = NoiseChannelKind::Depolarizing;
  Spec.Noise.Prob = 0.02;
  Spec.Noise.TwoQubitFactor = 1.5;
  return Spec;
}

/// A deterministic Trotter spec under the density oracle (evaluated once
/// per batch, its fidelity copied to every shot).
TaskSpec noisyTrotterSpec() {
  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(noiseHamiltonian());
  Spec.Method = TaskMethod::Trotter;
  Spec.Time = 0.4;
  Spec.TrotterReps = 2;
  Spec.TrotterOrder = 1;
  Spec.Shots = 1;
  Spec.Seed = 7;
  Spec.Evaluate.FidelityColumns = 6;
  Spec.Noise.Kind = NoiseChannelKind::AmplitudeDamping;
  Spec.Noise.Prob = 0.05;
  Spec.Noise.Mode = NoiseMode::Density;
  return Spec;
}

PauliString makeString(std::initializer_list<std::pair<unsigned, PauliOpKind>>
                           Ops) {
  PauliString P;
  for (const auto &[Q, K] : Ops)
    P.setOp(Q, K);
  return P;
}

/// A short 2-qubit schedule with four error slots (4^4 = 256 patterns —
/// exhaustively enumerable).
std::vector<ScheduledRotation> tinySchedule() {
  return {{makeString({{0, PauliOpKind::X}, {1, PauliOpKind::Y}}), 0.3},
          {makeString({{0, PauliOpKind::Z}}), 0.7},
          {makeString({{1, PauliOpKind::X}}), 0.2}};
}

/// The exact expectation of the stochastic tier: enumerate every error
/// pattern (one {I, X, Y, Z} outcome per support qubit per rotation, in
/// injection order) with its twirl probability and average the state
/// fidelity of the resulting schedules.
double enumeratedExpectation(const NoiseModel &Model,
                             const std::vector<ScheduledRotation> &Schedule,
                             const FidelityEvaluator &Eval) {
  struct Slot {
    size_t Step;
    unsigned Qubit;
    PauliTwirlWeights W;
  };
  std::vector<Slot> Slots;
  for (size_t S = 0; S < Schedule.size(); ++S) {
    PauliTwirlWeights W =
        Model.twirlWeights(Model.effectiveProb(Schedule[S].String.weight()));
    uint64_t Support = Schedule[S].String.supportMask();
    for (unsigned Q = 0; Support != 0; ++Q, Support >>= 1)
      if (Support & 1)
        Slots.push_back({S, Q, W});
  }
  const size_t Patterns = size_t(1) << (2 * Slots.size());
  double Acc = 0.0;
  for (size_t Pattern = 0; Pattern < Patterns; ++Pattern) {
    double Prob = 1.0;
    std::vector<ScheduledRotation> Noisy;
    size_t SlotIdx = 0;
    for (size_t S = 0; S < Schedule.size(); ++S) {
      Noisy.push_back(Schedule[S]);
      for (; SlotIdx < Slots.size() && Slots[SlotIdx].Step == S; ++SlotIdx) {
        const Slot &Sl = Slots[SlotIdx];
        const unsigned Outcome = (Pattern >> (2 * SlotIdx)) & 3;
        static constexpr PauliOpKind Errs[] = {PauliOpKind::I, PauliOpKind::X,
                                               PauliOpKind::Y, PauliOpKind::Z};
        const double P[] = {1.0 - Sl.W.total(), Sl.W.PX, Sl.W.PY, Sl.W.PZ};
        Prob *= P[Outcome];
        if (Outcome != 0)
          Noisy.emplace_back(makeString({{Sl.Qubit, Errs[Outcome]}}), HalfPi);
      }
      if (Prob == 0.0)
        break;
    }
    if (Prob == 0.0)
      continue;
    Acc += Prob * Eval.stateFidelity(Noisy);
  }
  return Acc;
}

std::string freshDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

} // namespace

//===----------------------------------------------------------------------===//
// Channel algebra
//===----------------------------------------------------------------------===//

TEST(NoiseModelTest, NamesRoundTripAndRejectUnknown) {
  for (NoiseChannelKind K :
       {NoiseChannelKind::None, NoiseChannelKind::Depolarizing,
        NoiseChannelKind::PhaseFlip, NoiseChannelKind::AmplitudeDamping})
    EXPECT_EQ(parseNoiseChannel(noiseChannelName(K)), K);
  EXPECT_FALSE(parseNoiseChannel("bitflip"));
  for (NoiseMode M : {NoiseMode::Stochastic, NoiseMode::Density})
    EXPECT_EQ(parseNoiseMode(noiseModeName(M)), M);
  EXPECT_FALSE(parseNoiseMode("exact"));
}

TEST(NoiseModelTest, KrausSetsResolveIdentity) {
  for (NoiseChannelKind K : NoisyChannels)
    for (double P : {0.0, 0.03, 0.4, 1.0}) {
      NoiseSpec Spec;
      Spec.Kind = K;
      Spec.Prob = P;
      NoiseModel Model(Spec);
      for (const std::vector<Matrix> &Set :
           {Model.krausOperators(P), Model.twirledKraus(P)}) {
        Matrix Sum(2, 2);
        for (const Matrix &Kr : Set)
          Sum += Kr.adjoint() * Kr;
        for (size_t I = 0; I < 2; ++I)
          for (size_t J = 0; J < 2; ++J) {
            EXPECT_NEAR(Sum.at(I, J).real(), I == J ? 1.0 : 0.0, 1e-12)
                << noiseChannelName(K) << " p=" << P;
            EXPECT_NEAR(Sum.at(I, J).imag(), 0.0, 1e-12);
          }
      }
    }
}

TEST(NoiseModelTest, TwirlWeightsMatchClosedForms) {
  NoiseSpec Spec;
  Spec.Kind = NoiseChannelKind::Depolarizing;
  EXPECT_DOUBLE_EQ(NoiseModel(Spec).twirlWeights(0.3).PX, 0.1);
  EXPECT_DOUBLE_EQ(NoiseModel(Spec).twirlWeights(0.3).PY, 0.1);
  EXPECT_DOUBLE_EQ(NoiseModel(Spec).twirlWeights(0.3).PZ, 0.1);

  Spec.Kind = NoiseChannelKind::PhaseFlip;
  EXPECT_DOUBLE_EQ(NoiseModel(Spec).twirlWeights(0.25).PZ, 0.25);
  EXPECT_DOUBLE_EQ(NoiseModel(Spec).twirlWeights(0.25).PX, 0.0);

  Spec.Kind = NoiseChannelKind::AmplitudeDamping;
  const double G = 0.2;
  PauliTwirlWeights W = NoiseModel(Spec).twirlWeights(G);
  EXPECT_DOUBLE_EQ(W.PX, G / 4.0);
  EXPECT_DOUBLE_EQ(W.PY, G / 4.0);
  EXPECT_DOUBLE_EQ(W.PZ, (2.0 - G - 2.0 * std::sqrt(1.0 - G)) / 4.0);
  EXPECT_GE(W.PZ, 0.0);
  EXPECT_LE(W.total(), 1.0);
}

TEST(NoiseModelTest, EffectiveProbScalesMultiQubitAndCaps) {
  NoiseSpec Spec;
  Spec.Kind = NoiseChannelKind::Depolarizing;
  Spec.Prob = 0.3;
  Spec.TwoQubitFactor = 2.0;
  NoiseModel Model(Spec);
  EXPECT_DOUBLE_EQ(Model.effectiveProb(0), 0.0); // identity rotations
  EXPECT_DOUBLE_EQ(Model.effectiveProb(1), 0.3);
  EXPECT_DOUBLE_EQ(Model.effectiveProb(2), 0.6);
  EXPECT_DOUBLE_EQ(Model.effectiveProb(3), 0.6);

  Spec.Prob = 0.8;
  EXPECT_DOUBLE_EQ(NoiseModel(Spec).effectiveProb(2), 1.0); // capped

  Spec.Kind = NoiseChannelKind::None;
  EXPECT_DOUBLE_EQ(NoiseModel(Spec).effectiveProb(1), 0.0);
}

//===----------------------------------------------------------------------===//
// DensityMatrix channel support and argument validation
//===----------------------------------------------------------------------===//

TEST(DensityChannelTest, ApplyChannelPreservesTraceAndMixesState) {
  NoiseSpec Spec;
  Spec.Kind = NoiseChannelKind::AmplitudeDamping;
  NoiseModel Model(Spec);

  DensityMatrix Rho(2, 3); // |11><11|
  Rho.applyChannel(Model.krausOperators(0.3), 0);
  EXPECT_NEAR(Rho.trace(), 1.0, 1e-12);
  // Damping moved 0.3 of the qubit-0 excitation to |10><10|.
  EXPECT_NEAR(Rho.matrix().at(2, 2).real(), 0.3, 1e-12);
  EXPECT_NEAR(Rho.matrix().at(3, 3).real(), 0.7, 1e-12);

  // A full damp (gamma = 1) resets the qubit to |0>.
  Rho.applyChannel(Model.krausOperators(1.0), 0);
  EXPECT_NEAR(Rho.matrix().at(2, 2).real(), 1.0, 1e-12);
}

TEST(DensityChannelTest, ApplyChannelValidatesArguments) {
  DensityMatrix Rho(2);
  EXPECT_THROW(Rho.applyChannel({}, 0), std::invalid_argument);
  EXPECT_THROW(Rho.applyChannel({Matrix(3, 3)}, 0), std::invalid_argument);
  EXPECT_THROW(Rho.applyChannel({Matrix::identity(2)}, 2),
               std::invalid_argument);
  // A non-trace-preserving set is caught by the trace-drift check.
  Matrix Half = Matrix::identity(2) * Complex(0.5, 0.0);
  EXPECT_THROW(Rho.applyChannel({Half}, 0), std::runtime_error);
}

TEST(DensityChannelTest, SamplingChannelAndTraceDistanceValidateArguments) {
  Hamiltonian H = noiseHamiltonian();
  DensityMatrix Rho(H.numQubits());
  // One probability too few for the term count.
  std::vector<double> Pi(H.numTerms() - 1, 1.0 / double(H.numTerms() - 1));
  EXPECT_THROW(Rho.applySamplingChannel(H, Pi, 0.1), std::invalid_argument);

  DensityMatrix Other(H.numQubits() + 1);
  EXPECT_THROW(Rho.traceDistance(Other), std::invalid_argument);
}

//===----------------------------------------------------------------------===//
// Stochastic injection
//===----------------------------------------------------------------------===//

TEST(NoiseInjectionTest, DeterministicAndPrefixPreserving) {
  NoiseSpec Spec;
  Spec.Kind = NoiseChannelKind::Depolarizing;
  Spec.Prob = 0.5; // high rate so the test schedule actually gains errors
  NoiseModel Model(Spec);
  std::vector<ScheduledRotation> Schedule = tinySchedule();

  RNG A = RNG::forShot(NoiseModel::noiseStreamSeed(99), 3);
  RNG B = RNG::forShot(NoiseModel::noiseStreamSeed(99), 3);
  std::vector<ScheduledRotation> NoisyA = Model.injectErrors(Schedule, A);
  std::vector<ScheduledRotation> NoisyB = Model.injectErrors(Schedule, B);
  ASSERT_EQ(NoisyA.size(), NoisyB.size());
  for (size_t I = 0; I < NoisyA.size(); ++I) {
    EXPECT_EQ(NoisyA[I].String, NoisyB[I].String);
    EXPECT_EQ(NoisyA[I].Tau, NoisyB[I].Tau);
  }

  // The noiseless schedule is an ordered subsequence; every injected
  // rotation is a single-qubit pi/2 Pauli.
  size_t Orig = 0;
  for (const ScheduledRotation &Step : NoisyA) {
    if (Orig < Schedule.size() && Step.String == Schedule[Orig].String &&
        Step.Tau == Schedule[Orig].Tau) {
      ++Orig;
      continue;
    }
    EXPECT_EQ(Step.String.weight(), 1u);
    EXPECT_EQ(Step.Tau, HalfPi);
  }
  EXPECT_EQ(Orig, Schedule.size());

  // Different shots draw different errors (with overwhelming probability
  // at this rate and schedule size).
  RNG C = RNG::forShot(NoiseModel::noiseStreamSeed(99), 4);
  std::vector<ScheduledRotation> NoisyC = Model.injectErrors(Schedule, C);
  bool Differs = NoisyC.size() != NoisyA.size();
  for (size_t I = 0; !Differs && I < NoisyA.size(); ++I)
    Differs = !(NoisyA[I].String == NoisyC[I].String);
  EXPECT_TRUE(Differs);

  // A disabled channel injects nothing.
  NoiseSpec Off;
  Off.Kind = NoiseChannelKind::Depolarizing;
  Off.Prob = 0.0;
  RNG D = RNG::forShot(1, 1);
  EXPECT_EQ(NoiseModel(Off).injectErrors(Schedule, D).size(), Schedule.size());
}

//===----------------------------------------------------------------------===//
// Stochastic expectation == density oracle
//===----------------------------------------------------------------------===//

TEST(NoiseOracleTest, ExactExpectationMatchesDensityOracle) {
  Hamiltonian H2 = Hamiltonian::parse({{0.8, "XY"}, {0.5, "ZI"}});
  FidelityEvaluator Eval(H2, 0.5, 4, 11); // 4 columns = exact at n=2
  std::vector<ScheduledRotation> Schedule = tinySchedule();

  for (NoiseChannelKind K : NoisyChannels) {
    NoiseSpec Spec;
    Spec.Kind = K;
    Spec.Prob = 0.15;
    Spec.TwoQubitFactor = 1.4;
    NoiseModel Model(Spec);

    const double Oracle = Model.densityFidelity(Schedule, 2, Eval);
    const double Expect = enumeratedExpectation(Model, Schedule, Eval);
    EXPECT_NEAR(Expect, Oracle, 1e-10) << noiseChannelName(K);
  }
}

TEST(NoiseServiceTest, StochasticMeanConvergesToDensityOracle) {
  // The same deterministic Trotter schedule under both modes, for every
  // channel: the stochastic tier's mean over many shots must approach the
  // density oracle's exact expectation, both must sit below the noiseless
  // fidelity, and neither may change the compiled batch.
  SimulationService Service;
  std::string Error;
  TaskSpec CleanOne = noisyTrotterSpec();
  CleanOne.Noise = NoiseSpec();
  TaskSpec CleanMany = CleanOne;
  CleanMany.Shots = 400;
  CleanMany.Jobs = 4;
  std::optional<TaskResult> C1 = Service.run(CleanOne, &Error);
  ASSERT_TRUE(C1) << Error;
  std::optional<TaskResult> CM = Service.run(CleanMany, &Error);
  ASSERT_TRUE(CM) << Error;

  for (NoiseChannelKind Kind : NoisyChannels) {
    SCOPED_TRACE(noiseChannelName(Kind));
    TaskSpec Density = noisyTrotterSpec();
    Density.Noise.Kind = Kind;
    TaskSpec Stochastic = Density;
    Stochastic.Noise.Mode = NoiseMode::Stochastic;
    Stochastic.Shots = CleanMany.Shots;
    Stochastic.Jobs = CleanMany.Jobs;
    std::optional<TaskResult> D = Service.run(Density, &Error);
    ASSERT_TRUE(D) << Error;
    std::optional<TaskResult> S = Service.run(Stochastic, &Error);
    ASSERT_TRUE(S) << Error;

    ASSERT_TRUE(D->HasFidelity);
    ASSERT_TRUE(S->HasFidelity);
    // 400 samples of a [0, 1] quantity: a 0.05 tolerance is > 2 sigma of
    // headroom at the observed spread.
    EXPECT_NEAR(S->Fidelity.Mean, D->ShotFidelities[0], 0.05);
    EXPECT_LT(D->ShotFidelities[0], C1->ShotFidelities[0]);
    EXPECT_LE(S->Fidelity.Mean, CM->Fidelity.Mean);
    EXPECT_EQ(D->Batch.batchHash(), C1->Batch.batchHash());
    EXPECT_EQ(S->Batch.batchHash(), CM->Batch.batchHash());
  }
}

TEST(NoiseServiceTest, DeterministicDensityRunIsTheDirectOracle) {
  // A deterministic density task is evaluated by the direct oracle, bit
  // for bit, and persists nothing but its fidelity columns.
  const std::string Dir = freshDir("noise_density_direct");
  ServiceOptions Options;
  Options.CacheDir = Dir;
  SimulationService Service(Options);
  TaskSpec Spec = noisyTrotterSpec();
  Spec.Shots = 3;
  Spec.Evaluate.ExportShotZero = true;
  std::string Error;
  std::optional<TaskResult> R = Service.run(Spec, &Error);
  ASSERT_TRUE(R) << Error;
  ASSERT_TRUE(R->HasShotZero);

  const Hamiltonian H = noiseHamiltonian();
  const FidelityEvaluator Eval(H, Spec.Time, Spec.Evaluate.FidelityColumns,
                               Spec.Evaluate.ColumnSeed);
  const double Oracle = NoiseModel(Spec.Noise).densityFidelity(
      R->ShotZero.Schedule, H.numQubits(), Eval);
  ASSERT_EQ(R->ShotFidelities.size(), 3u);
  for (size_t I = 0; I < 3; ++I)
    EXPECT_EQ(serial::doubleBits(R->ShotFidelities[I]),
              serial::doubleBits(Oracle))
        << "shot " << I;

  size_t Files = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    EXPECT_EQ(Entry.path().extension(), ".fid") << Entry.path();
    ++Files;
  }
  EXPECT_EQ(Files, 1u);
}

//===----------------------------------------------------------------------===//
// Bit-identity across jobs and shards
//===----------------------------------------------------------------------===//

TEST(NoiseServiceTest, NoisyBatchIsBitIdenticalAcrossJobCounts) {
  SimulationService Service;
  std::string Error;
  TaskSpec Clean = noisySamplingSpec();
  Clean.Noise = NoiseSpec();
  std::optional<TaskResult> Noiseless = Service.run(Clean, &Error);
  ASSERT_TRUE(Noiseless) << Error;

  for (NoiseChannelKind Kind : NoisyChannels)
    for (NoiseMode Mode : {NoiseMode::Stochastic, NoiseMode::Density}) {
      SCOPED_TRACE(std::string(noiseChannelName(Kind)) + "/" +
                   noiseModeName(Mode));
      TaskSpec Spec = noisySamplingSpec();
      Spec.Noise.Kind = Kind;
      Spec.Noise.Mode = Mode;
      std::optional<TaskResult> Base = Service.run(Spec, &Error);
      ASSERT_TRUE(Base) << Error;
      ASSERT_TRUE(Base->HasFidelity);
      // Noise models execution, never compilation, and it costs fidelity.
      EXPECT_EQ(Base->Batch.batchHash(), Noiseless->Batch.batchHash());
      EXPECT_LT(Base->Fidelity.Mean, Noiseless->Fidelity.Mean);

      for (auto [Jobs, EvalJobs] : {std::pair<unsigned, unsigned>{4, 1},
                                    {1, 2},
                                    {4, 2}}) {
        TaskSpec Alt = Spec;
        Alt.Jobs = Jobs;
        Alt.EvalJobs = EvalJobs;
        std::optional<TaskResult> R = Service.run(Alt, &Error);
        ASSERT_TRUE(R) << Error;
        EXPECT_EQ(R->Batch.batchHash(), Base->Batch.batchHash());
        ASSERT_EQ(R->ShotFidelities.size(), Base->ShotFidelities.size());
        for (size_t I = 0; I < R->ShotFidelities.size(); ++I)
          EXPECT_EQ(serial::doubleBits(R->ShotFidelities[I]),
                    serial::doubleBits(Base->ShotFidelities[I]))
              << "jobs=" << Jobs << " eval-jobs=" << EvalJobs << " shot "
              << I;
      }
    }
}

TEST(NoiseShardTest, ShardedNoisyRunMatchesSingleProcess) {
  TaskSpec Spec = noisySamplingSpec();
  SimulationService Service;
  std::string Error;
  std::optional<TaskResult> Full = Service.run(Spec, &Error);
  ASSERT_TRUE(Full) << Error;

  // In-process shard split: run each range, serialize/parse the manifest
  // (the exact file round trip the coordinator performs), then merge.
  std::vector<ShardManifest> Manifests;
  for (unsigned I = 0; I < 3; ++I) {
    std::optional<ShardManifest> M =
        ShardCoordinator::runShard(Service, Spec, I, 3, &Error);
    ASSERT_TRUE(M) << Error;
    EXPECT_EQ(M->Noise.Kind, Spec.Noise.Kind);
    std::optional<ShardManifest> Back =
        ShardManifest::parse(M->serialize(), &Error);
    ASSERT_TRUE(Back) << Error;
    EXPECT_EQ(Back->Noise.Kind, Spec.Noise.Kind);
    EXPECT_EQ(serial::doubleBits(Back->Noise.Prob),
              serial::doubleBits(Spec.Noise.Prob));
    EXPECT_EQ(serial::doubleBits(Back->Noise.TwoQubitFactor),
              serial::doubleBits(Spec.Noise.TwoQubitFactor));
    EXPECT_EQ(Back->Noise.Mode, Spec.Noise.Mode);
    Manifests.push_back(std::move(*Back));
  }
  std::optional<TaskResult> Merged =
      ShardCoordinator::merge(Spec, Full->Fingerprint, std::move(Manifests),
                              &Error);
  ASSERT_TRUE(Merged) << Error;
  EXPECT_EQ(Merged->Batch.batchHash(), Full->Batch.batchHash());
  ASSERT_EQ(Merged->ShotFidelities.size(), Full->ShotFidelities.size());
  for (size_t I = 0; I < Full->ShotFidelities.size(); ++I)
    EXPECT_EQ(serial::doubleBits(Merged->ShotFidelities[I]),
              serial::doubleBits(Full->ShotFidelities[I]))
        << "shot " << I;
}

//===----------------------------------------------------------------------===//
// Frozen golden
//===----------------------------------------------------------------------===//

TEST(NoiseGoldenTest, FixedSeedNoisyBatchIsFrozen) {
  // The noise stream is decoupled from the sampling stream, so a noisy
  // batch compiles the *same circuits* as its noiseless twin — only the
  // fidelities differ. Both halves are pinned: the shared batch hash and
  // the exact bits of the noisy fidelities. A change to either breaks
  // the cross-version determinism contract, not just a tolerance.
  TaskSpec Spec = noisySamplingSpec();
  Spec.Shots = 3;
  SimulationService Service;
  std::string Error;
  std::optional<TaskResult> Noisy = Service.run(Spec, &Error);
  ASSERT_TRUE(Noisy) << Error;

  TaskSpec Clean = Spec;
  Clean.Noise = NoiseSpec();
  std::optional<TaskResult> Noiseless = Service.run(Clean, &Error);
  ASSERT_TRUE(Noiseless) << Error;
  EXPECT_EQ(Noisy->Batch.batchHash(), Noiseless->Batch.batchHash());

  ASSERT_EQ(Noisy->ShotFidelities.size(), 3u);
  // Frozen with the repository's fixed seeds: any change to the RNG
  // streams, twirl weights, injection order, or state-fidelity reduction
  // shows up here as a bit difference, not a drifting tolerance.
  const uint64_t Golden[3] = {
      0x3fee09d4c23e5f2cULL,
      0x3f861f224ac24745ULL,
      0x3fef413e0bd5d0a3ULL,
  };
  for (size_t I = 0; I < 3; ++I)
    EXPECT_EQ(serial::doubleBits(Noisy->ShotFidelities[I]), Golden[I])
        << "shot " << I << " = " << serial::hex16(serial::doubleBits(
                                         Noisy->ShotFidelities[I]));
}
