//===- tests/ServiceTest.cpp - SimulationService / cache contracts ------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The contracts of the declarative front-end:
//   * Hamiltonian::fingerprint is order/duplication-insensitive content
//     hashing,
//   * the artifact caches key on exactly (fingerprint, weights, flow
//     options, rounds/perturb seed, time, columns) — equal content hits,
//     any knob change misses,
//   * concurrent runs never duplicate an MCFP solve,
//   * the on-disk component store round-trips bit-exactly across service
//     instances,
//   * in-worker fidelity equals the caller-thread evaluator loop and is
//     bit-identical for every job count,
//   * a fig14-style ratio sweep performs exactly one gate-cancellation
//     solve per (Hamiltonian, MCFPOptions).
//
//===----------------------------------------------------------------------===//

#include "service/SimulationService.h"
#include "shard/ShardCoordinator.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace marqsim;

namespace {

/// A small strongly-interacting Hamiltonian for service tests.
Hamiltonian testHamiltonian() {
  return Hamiltonian::parse({{1.0, "IIZY"},
                             {0.8, "XXII"},
                             {0.6, "ZXZY"},
                             {0.4, "IZZX"},
                             {0.2, "XYYZ"}});
}

/// The same operator with the term list permuted.
Hamiltonian permutedHamiltonian() {
  return Hamiltonian::parse({{0.4, "IZZX"},
                             {0.2, "XYYZ"},
                             {1.0, "IIZY"},
                             {0.6, "ZXZY"},
                             {0.8, "XXII"}});
}

/// A baseline sampling spec over \p H with the GC mix.
TaskSpec testSpec(Hamiltonian H) {
  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(std::move(H));
  Spec.Mix = *ChannelMix::preset("gc");
  Spec.Time = 0.5;
  Spec.Epsilon = 0.05;
  Spec.Shots = 6;
  Spec.Seed = 31337;
  return Spec;
}

/// Writes \p H's term list to a fresh file under the test temp dir.
std::string writeHamiltonianFile(const Hamiltonian &H, const char *Name) {
  std::string Path = testing::TempDir() + Name;
  std::ofstream Out(Path);
  for (const PauliTerm &T : H.terms())
    Out << T.Coeff << " " << T.String.str(H.numQubits()) << "\n";
  return Path;
}

} // namespace

//===----------------------------------------------------------------------===//
// Hamiltonian::fingerprint
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, InsensitiveToTermOrderAndDuplication) {
  EXPECT_EQ(testHamiltonian().fingerprint(),
            permutedHamiltonian().fingerprint());
  // Duplicated terms merge back to the same content.
  Hamiltonian Split = Hamiltonian::parse(
      {{0.5, "XZ"}, {0.25, "YY"}, {0.5, "XZ"}});
  Hamiltonian Whole = Hamiltonian::parse({{1.0, "XZ"}, {0.25, "YY"}});
  EXPECT_EQ(Split.fingerprint(), Whole.fingerprint());
}

TEST(FingerprintTest, SensitiveToContent) {
  uint64_t Base = testHamiltonian().fingerprint();
  Hamiltonian Coeff = Hamiltonian::parse({{1.0, "IIZY"},
                                          {0.8, "XXII"},
                                          {0.6, "ZXZY"},
                                          {0.4, "IZZX"},
                                          {0.25, "XYYZ"}});
  EXPECT_NE(Base, Coeff.fingerprint());
  Hamiltonian String = Hamiltonian::parse({{1.0, "IIZY"},
                                           {0.8, "XXII"},
                                           {0.6, "ZXZY"},
                                           {0.4, "IZZX"},
                                           {0.2, "XYYX"}});
  EXPECT_NE(Base, String.fingerprint());
  // Same masks, larger register.
  Hamiltonian Narrow = testHamiltonian();
  Hamiltonian Wide(5);
  for (const PauliTerm &T : Narrow.terms())
    Wide.addTerm(T.Coeff, T.String);
  EXPECT_NE(Base, Wide.fingerprint());
}

//===----------------------------------------------------------------------===//
// Cache keying
//===----------------------------------------------------------------------===//

TEST(ServiceCacheTest, TermPermutedSourcesShareOneEntry) {
  // The same operator from two files with permuted term lists: one MCFP
  // solve, one graph, and bit-identical batches.
  std::string PathA = writeHamiltonianFile(testHamiltonian(), "svc_a.txt");
  std::string PathB =
      writeHamiltonianFile(permutedHamiltonian(), "svc_b.txt");

  SimulationService Service;
  TaskSpec Spec = testSpec(testHamiltonian());
  Spec.Source = HamiltonianSource::fromFile(PathA);
  std::string Error;
  std::optional<TaskResult> A = Service.run(Spec, &Error);
  ASSERT_TRUE(A) << Error;
  Spec.Source = HamiltonianSource::fromFile(PathB);
  std::optional<TaskResult> B = Service.run(Spec, &Error);
  ASSERT_TRUE(B) << Error;

  EXPECT_EQ(A->Fingerprint, B->Fingerprint);
  EXPECT_EQ(A->Batch.batchHash(), B->Batch.batchHash());
  EXPECT_EQ(A->Stats.GCSolveMisses, 1u);
  EXPECT_EQ(A->Stats.GraphMisses, 1u);
  EXPECT_EQ(B->Stats.GCSolveMisses, 0u);
  EXPECT_EQ(B->Stats.GraphHits, 1u);
  EXPECT_EQ(Service.stats().GCSolveMisses, 1u);
}

TEST(ServiceCacheTest, EveryKeyComponentMisses) {
  SimulationService Service;
  TaskSpec Base = testSpec(testHamiltonian());
  Base.Mix = *ChannelMix::preset("gc-rp");
  Base.Evaluate.FidelityColumns = 4;
  ASSERT_TRUE(Service.run(Base));
  CacheStats First = Service.stats();
  EXPECT_EQ(First.GCSolveMisses, 1u);
  EXPECT_EQ(First.RPSolveMisses, 1u);
  EXPECT_EQ(First.GraphMisses, 1u);
  EXPECT_EQ(First.EvaluatorMisses, 1u);

  // Identical spec: everything hits.
  ASSERT_TRUE(Service.run(Base));
  CacheStats Same = Service.stats();
  EXPECT_EQ(Same.matrixMisses(), First.matrixMisses());
  EXPECT_EQ(Same.GraphMisses, First.GraphMisses);
  EXPECT_EQ(Same.EvaluatorMisses, First.EvaluatorMisses);

  // Different weights: new graph, but the component solves are reused.
  TaskSpec Weights = Base;
  Weights.Mix = ChannelMix{0.2, 0.4, 0.4};
  ASSERT_TRUE(Service.run(Weights));
  CacheStats AfterWeights = Service.stats();
  EXPECT_EQ(AfterWeights.GraphMisses, First.GraphMisses + 1);
  EXPECT_EQ(AfterWeights.matrixMisses(), First.matrixMisses());
  EXPECT_GT(AfterWeights.matrixHits(), Same.matrixHits());

  // Different perturbation rounds: Prp re-solves, Pgc does not.
  TaskSpec Rounds = Base;
  Rounds.PerturbRounds = Base.PerturbRounds + 3;
  ASSERT_TRUE(Service.run(Rounds));
  CacheStats AfterRounds = Service.stats();
  EXPECT_EQ(AfterRounds.RPSolveMisses, First.RPSolveMisses + 1);
  EXPECT_EQ(AfterRounds.GCSolveMisses, First.GCSolveMisses);

  // Different MCFP encoding: both components re-solve.
  TaskSpec Flow = Base;
  Flow.Flow.ProbScale = 1'000'000;
  ASSERT_TRUE(Service.run(Flow));
  CacheStats AfterFlow = Service.stats();
  EXPECT_EQ(AfterFlow.GCSolveMisses, AfterRounds.GCSolveMisses + 1);
  EXPECT_EQ(AfterFlow.RPSolveMisses, AfterRounds.RPSolveMisses + 1);

  // Different evolution time: the evaluator re-targets, the graph and
  // matrices do not (time only changes the sampling budget).
  TaskSpec Time = Base;
  Time.Time = 0.75;
  ASSERT_TRUE(Service.run(Time));
  CacheStats AfterTime = Service.stats();
  EXPECT_EQ(AfterTime.EvaluatorMisses, AfterFlow.EvaluatorMisses + 1);
  EXPECT_EQ(AfterTime.GraphMisses, AfterFlow.GraphMisses);
  EXPECT_EQ(AfterTime.matrixMisses(), AfterFlow.matrixMisses());

  // Different fidelity columns: evaluator misses again.
  TaskSpec Columns = Base;
  Columns.Evaluate.FidelityColumns = 8;
  ASSERT_TRUE(Service.run(Columns));
  EXPECT_EQ(Service.stats().EvaluatorMisses,
            AfterTime.EvaluatorMisses + 1);
}

TEST(ServiceCacheTest, ConcurrentRunsNeverDuplicateASolve) {
  SimulationService Service;
  TaskSpec Spec = testSpec(testHamiltonian());
  std::optional<TaskResult> A, B;
  std::thread T1([&] { A = Service.run(Spec); });
  std::thread T2([&] { B = Service.run(Spec); });
  T1.join();
  T2.join();
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->Batch.batchHash(), B->Batch.batchHash());
  // One thread built the bundle (solving the MCFP inside), the other
  // blocked on the in-flight entry and reused it: exactly one solve and
  // one graph hit, never two solves.
  CacheStats S = Service.stats();
  EXPECT_EQ(S.GCSolveMisses, 1u);
  EXPECT_EQ(S.GraphMisses, 1u);
  EXPECT_EQ(S.GraphHits, 1u);
}

TEST(ServiceCacheTest, DiskStorePersistsAcrossServices) {
  // A fresh store: leftovers from earlier runs would turn the cold
  // service's solve into a disk hit.
  std::string Dir = testing::TempDir() + "svc_disk_cache";
  std::filesystem::remove_all(Dir);

  ServiceOptions Options;
  Options.CacheDir = Dir;
  TaskSpec Spec = testSpec(testHamiltonian());

  uint64_t FirstHash = 0;
  {
    SimulationService Cold(Options);
    std::optional<TaskResult> R = Cold.run(Spec);
    ASSERT_TRUE(R);
    FirstHash = R->Batch.batchHash();
    EXPECT_EQ(Cold.stats().GCSolveMisses, 1u);
    EXPECT_EQ(Cold.stats().DiskLoads, 0u);
  }
  // A fresh service (fresh process, conceptually) loads the solved matrix
  // from disk: a hit, not a solve, and the batch replays bit-exactly.
  SimulationService Warm(Options);
  std::optional<TaskResult> R = Warm.run(Spec);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Batch.batchHash(), FirstHash);
  EXPECT_EQ(Warm.stats().GCSolveMisses, 0u);
  EXPECT_EQ(Warm.stats().GCSolveHits, 1u);
  EXPECT_EQ(Warm.stats().DiskLoads, 1u);
}

TEST(ServiceCacheTest, DiskStoreCorruptionFallsBackToReSolve) {
  // The fallback path of the tiered store: a damaged component file must
  // never poison a run. Truncation and single-character flips both fail
  // the store's whole-file checksum, the service silently re-solves, and
  // the batch is bit-identical to the healthy-cache run. The alias-bundle
  // tier sits above the components, so it is removed before each warm run
  // here; StoreTest covers the per-type fallbacks (including the bundle
  // masking a corrupt component).
  std::string Dir = testing::TempDir() + "svc_corrupt_cache";
  std::filesystem::remove_all(Dir);
  ServiceOptions Options;
  Options.CacheDir = Dir;
  TaskSpec Spec = testSpec(testHamiltonian());

  uint64_t CleanHash = 0;
  {
    SimulationService Cold(Options);
    std::optional<TaskResult> R = Cold.run(Spec);
    ASSERT_TRUE(R);
    CleanHash = R->Batch.batchHash();
  }
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".mat")
      Files.push_back(Entry.path());
  ASSERT_EQ(Files.size(), 1u); // one Pgc component for the gc mix

  auto ReadAll = [](const std::filesystem::path &P) {
    std::ifstream In(P);
    return std::string((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  };
  auto DropAliasTier = [&Dir] {
    for (const auto &Entry : std::filesystem::directory_iterator(Dir))
      if (Entry.path().extension() == ".alias")
        std::filesystem::remove(Entry.path());
  };
  const std::string Healthy = ReadAll(Files[0]);

  // Truncation: drop the second half of the file.
  std::ofstream(Files[0]) << Healthy.substr(0, Healthy.size() / 2);
  DropAliasTier();
  {
    SimulationService Service(Options);
    std::optional<TaskResult> R = Service.run(Spec);
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Batch.batchHash(), CleanHash);
    EXPECT_EQ(Service.stats().GCSolveMisses, 1u) << "must re-solve";
    EXPECT_EQ(Service.stats().DiskLoads, 0u);
  }
  // The re-solve overwrote the damaged artifact: healed, byte-identical.
  EXPECT_EQ(ReadAll(Files[0]), Healthy);

  // Bit flip: change one payload character. The hex would still parse —
  // into a *different* matrix — so only the checksum stands between a
  // flipped bit and silently divergent schedules.
  std::string Flipped = Healthy;
  size_t Pos = Flipped.find('\n') + 3; // inside the first entry's hex
  Flipped[Pos] = Flipped[Pos] == '0' ? '1' : '0';
  std::ofstream(Files[0]) << Flipped;
  DropAliasTier();
  {
    SimulationService Service(Options);
    std::optional<TaskResult> R = Service.run(Spec);
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Batch.batchHash(), CleanHash);
    EXPECT_EQ(Service.stats().GCSolveMisses, 1u) << "must re-solve";
    EXPECT_EQ(Service.stats().DiskLoads, 0u);
  }
  EXPECT_EQ(ReadAll(Files[0]), Healthy);

  // Control: an undamaged store is a disk hit (the alias bundle, which
  // subsumes the component), no solve.
  SimulationService Warm(Options);
  ASSERT_TRUE(Warm.run(Spec));
  EXPECT_EQ(Warm.stats().GCSolveMisses, 0u);
  EXPECT_EQ(Warm.stats().DiskLoads, 1u);
}

TEST(ServiceCacheTest, RatioSweepPerformsOneGCSolve) {
  // The fig14 shape: four (Pqd, Pgc) ratios x two epsilons over one
  // Hamiltonian must cost exactly one gate-cancellation MCFP solve.
  SimulationService Service;
  const ChannelMix Ratios[] = {{1.0, 0.0, 0.0},
                               {0.8, 0.2, 0.0},
                               {0.4, 0.6, 0.0},
                               {0.2, 0.8, 0.0}};
  for (const ChannelMix &Mix : Ratios)
    for (double Eps : {0.1, 0.05}) {
      TaskSpec Spec = testSpec(testHamiltonian());
      Spec.Mix = Mix;
      Spec.Epsilon = Eps;
      ASSERT_TRUE(Service.run(Spec));
    }
  CacheStats S = Service.stats();
  EXPECT_EQ(S.GCSolveMisses, 1u);
  EXPECT_EQ(S.GCSolveHits, 2u);  // the other two GC-weighted ratios
  EXPECT_EQ(S.GraphMisses, 4u);  // one bundle per ratio
  EXPECT_EQ(S.GraphHits, 4u);    // the second epsilon of each ratio
}

//===----------------------------------------------------------------------===//
// In-worker fidelity
//===----------------------------------------------------------------------===//

TEST(ServiceFidelityTest, JobInvariantAndEqualToCallerThreadLoop) {
  SimulationService Service;
  TaskSpec Spec = testSpec(testHamiltonian());
  Spec.Shots = 8;
  Spec.Evaluate.FidelityColumns = 6;
  Spec.Evaluate.KeepResults = true;

  Spec.Jobs = 1;
  std::optional<TaskResult> Serial = Service.run(Spec);
  Spec.Jobs = 8;
  std::optional<TaskResult> Parallel = Service.run(Spec);
  ASSERT_TRUE(Serial && Parallel);
  ASSERT_EQ(Serial->ShotFidelities.size(), Spec.Shots);

  // Bit-identical across job counts (not just approximately equal).
  EXPECT_EQ(Serial->Batch.batchHash(), Parallel->Batch.batchHash());
  for (size_t Shot = 0; Shot < Spec.Shots; ++Shot)
    EXPECT_EQ(Serial->ShotFidelities[Shot], Parallel->ShotFidelities[Shot])
        << "shot " << Shot;
  EXPECT_EQ(Serial->Fidelity.Mean, Parallel->Fidelity.Mean);
  EXPECT_EQ(Serial->Fidelity.Std, Parallel->Fidelity.Std);

  // Equal to the old caller-thread path: a manual evaluator loop over the
  // retained results, built against the same canonical Hamiltonian.
  Hamiltonian Prepared = SimulationService::prepare(testHamiltonian());
  FidelityEvaluator Manual(Prepared, Spec.Time,
                           Spec.Evaluate.FidelityColumns,
                           Spec.Evaluate.ColumnSeed);
  ASSERT_EQ(Serial->Batch.Results.size(), Spec.Shots);
  for (size_t Shot = 0; Shot < Spec.Shots; ++Shot)
    EXPECT_EQ(Serial->ShotFidelities[Shot],
              Manual.fidelity(Serial->Batch.Results[Shot].Schedule))
        << "shot " << Shot;
}

TEST(ServiceFidelityTest, EvalJobsBitIdenticalAndTimed) {
  SimulationService Service;
  TaskSpec Spec = testSpec(testHamiltonian());
  Spec.Shots = 4;
  // 12 columns = two fixed-width panel blocks, so EvalJobs > 1 actually
  // redistributes work.
  Spec.Evaluate.FidelityColumns = 12;

  Spec.EvalJobs = 1;
  std::optional<TaskResult> Serial = Service.run(Spec);
  Spec.EvalJobs = 3;
  std::optional<TaskResult> FannedOut = Service.run(Spec);
  Spec.EvalJobs = 0; // all cores
  std::optional<TaskResult> AllCores = Service.run(Spec);
  ASSERT_TRUE(Serial && FannedOut && AllCores);

  EXPECT_EQ(Serial->Batch.batchHash(), FannedOut->Batch.batchHash());
  ASSERT_EQ(Serial->ShotFidelities.size(), Spec.Shots);
  for (size_t Shot = 0; Shot < Spec.Shots; ++Shot) {
    EXPECT_EQ(Serial->ShotFidelities[Shot], FannedOut->ShotFidelities[Shot])
        << "shot " << Shot;
    EXPECT_EQ(Serial->ShotFidelities[Shot], AllCores->ShotFidelities[Shot])
        << "shot " << Shot;
  }
  EXPECT_EQ(Serial->Fidelity.Mean, FannedOut->Fidelity.Mean);
  EXPECT_EQ(Serial->Fidelity.Std, FannedOut->Fidelity.Std);

  // The evaluation phase is real work here, so its accounting is nonzero.
  EXPECT_GT(Serial->Batch.EvalSeconds, 0.0);
}

TEST(ServiceFidelityTest, EvalJobsTravelsThroughShardWorkersByteIdentically) {
  // The within-shot knob must survive the shard path end to end: it is
  // placed on the worker command line, and a sharded run under any
  // EvalJobs merges to the exact bytes of the single-process run.
  TaskSpec Spec = testSpec(testHamiltonian());
  Spec.Shots = 5;
  Spec.Evaluate.FidelityColumns = 12;
  Spec.EvalJobs = 3;

  // Command-line transport: workerArgs forwards the knob verbatim.
  TaskSpec FileSpec = Spec;
  FileSpec.Source = HamiltonianSource::fromFile("h.txt");
  std::optional<std::vector<std::string>> Argv = ShardCoordinator::workerArgs(
      "marqsim-cli", FileSpec, 0, 2, "out.manifest", "");
  ASSERT_TRUE(Argv);
  EXPECT_NE(std::find(Argv->begin(), Argv->end(),
                      std::string("--eval-jobs=3")),
            Argv->end());

  SimulationService Single;
  TaskSpec SerialSpec = Spec;
  SerialSpec.EvalJobs = 1;
  std::optional<TaskResult> Unsharded = Single.run(SerialSpec);
  ASSERT_TRUE(Unsharded);

  ShardOptions Options;
  Options.ShardCount = 2;
  Options.WorkDir = testing::TempDir() + "mq-evaljobs-shards";
  std::filesystem::remove_all(Options.WorkDir);
  ShardCoordinator Coordinator(Options); // in-process workers
  std::string Error;
  std::optional<TaskResult> Sharded = Coordinator.run(Spec, &Error);
  ASSERT_TRUE(Sharded) << Error;

  EXPECT_EQ(Sharded->Batch.batchHash(), Unsharded->Batch.batchHash());
  ASSERT_EQ(Sharded->ShotFidelities.size(), Unsharded->ShotFidelities.size());
  for (size_t Shot = 0; Shot < Spec.Shots; ++Shot)
    EXPECT_EQ(serial::doubleBits(Sharded->ShotFidelities[Shot]),
              serial::doubleBits(Unsharded->ShotFidelities[Shot]))
        << "shot " << Shot;
  EXPECT_EQ(Sharded->Fidelity.Mean, Unsharded->Fidelity.Mean);
  // The merge carries the workers' evaluation accounting through.
  EXPECT_GT(Sharded->Batch.EvalSeconds, 0.0);
  std::filesystem::remove_all(Options.WorkDir);
}

//===----------------------------------------------------------------------===//
// Task surface
//===----------------------------------------------------------------------===//

TEST(ServiceTaskTest, ShotZeroMatchesRetainedResults) {
  SimulationService Service;
  TaskSpec Spec = testSpec(testHamiltonian());
  Spec.Shots = 3;
  Spec.Jobs = 3;
  Spec.Evaluate.ExportShotZero = true;
  Spec.Evaluate.KeepResults = true;
  std::optional<TaskResult> R = Service.run(Spec);
  ASSERT_TRUE(R);
  ASSERT_TRUE(R->HasShotZero);
  EXPECT_EQ(R->ShotZero.Sequence, R->Batch.Results[0].Sequence);
  EXPECT_EQ(R->ShotZero.Counts.CNOTs, R->Batch.Results[0].Counts.CNOTs);
}

TEST(ServiceTaskTest, TrotterTasksReplicateDeterministically) {
  SimulationService Service;
  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(testHamiltonian());
  Spec.Method = TaskMethod::Trotter;
  Spec.Time = 0.7;
  Spec.TrotterReps = 4;
  Spec.TrotterOrder = 2;
  Spec.Order = TermOrderKind::Lexicographic;
  Spec.Shots = 5;
  Spec.Evaluate.FidelityColumns = 4;
  std::optional<TaskResult> R = Service.run(Spec);
  ASSERT_TRUE(R);
  EXPECT_DOUBLE_EQ(R->Batch.CNOTs.Std, 0.0);
  for (size_t Shot = 1; Shot < Spec.Shots; ++Shot)
    EXPECT_EQ(R->ShotFidelities[Shot], R->ShotFidelities[0]);
  // No sampling artifacts were needed.
  EXPECT_EQ(Service.stats().GraphMisses, 0u);
  EXPECT_EQ(Service.stats().matrixMisses(), 0u);
}

TEST(ServiceTaskTest, TrotterPreservesDeclaredTermOrder) {
  // Trotter-family tasks must compile the operator exactly as given:
  // canonicalization (which sorts terms) would make TermOrderKind::Given
  // indistinguishable from Lexicographic. testHamiltonian()'s declared
  // order differs from its sorted order, so the two schedules must too.
  SimulationService Service;
  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(testHamiltonian());
  Spec.Method = TaskMethod::Trotter;
  Spec.Time = 0.7;
  Spec.TrotterReps = 2;
  Spec.Order = TermOrderKind::Given;
  Spec.Evaluate.ExportShotZero = true;
  std::optional<TaskResult> Given = Service.run(Spec);
  Spec.Order = TermOrderKind::Lexicographic;
  std::optional<TaskResult> Lex = Service.run(Spec);
  ASSERT_TRUE(Given && Lex);
  EXPECT_NE(Given->ShotZero.Sequence, Lex->ShotZero.Sequence);
  // The declared order survives into the schedule: repetition 1 visits
  // the terms in declaration order.
  const Hamiltonian H = testHamiltonian();
  ASSERT_GE(Given->ShotZero.Sequence.size(), H.numTerms());
  for (size_t I = 0; I < H.numTerms(); ++I)
    EXPECT_EQ(Given->ShotZero.Sequence[I], I) << "visit " << I;
}

TEST(ServiceTaskTest, InvalidSpecsAndSourcesAreRejected) {
  SimulationService Service;
  std::string Error;

  TaskSpec BadTime = testSpec(testHamiltonian());
  BadTime.Time = -1.0;
  EXPECT_FALSE(Service.run(BadTime, &Error));
  EXPECT_NE(Error.find("time"), std::string::npos);

  TaskSpec BadEps = testSpec(testHamiltonian());
  BadEps.Epsilon = 0.0;
  EXPECT_FALSE(Service.run(BadEps, &Error));

  TaskSpec BadMix = testSpec(testHamiltonian());
  BadMix.Mix = ChannelMix{0.0, 0.0, 0.0};
  EXPECT_FALSE(Service.run(BadMix, &Error));

  // Zero perturbation rounds with a live Prp weight would divide by zero
  // inside buildRandomPerturbation (and poison the disk cache with NaNs).
  TaskSpec BadRounds = testSpec(testHamiltonian());
  BadRounds.Mix = *ChannelMix::preset("gc-rp");
  BadRounds.PerturbRounds = 0;
  EXPECT_FALSE(Service.run(BadRounds, &Error));
  EXPECT_NE(Error.find("perturbation round"), std::string::npos);

  TaskSpec BadFile = testSpec(testHamiltonian());
  BadFile.Source = HamiltonianSource::fromFile(testing::TempDir() +
                                               "does_not_exist.txt");
  EXPECT_FALSE(Service.run(BadFile, &Error));

  TaskSpec BadModel = testSpec(testHamiltonian());
  BadModel.Source = HamiltonianSource::fromModel("NotABenchmark");
  EXPECT_FALSE(Service.run(BadModel, &Error));
  EXPECT_NE(Error.find("NotABenchmark"), std::string::npos);
}

TEST(ServiceTaskTest, InfeasibleFlowModelIsAnErrorNotACrash) {
  // A one-unit probability quantum gives the heaviest term (pi = 1/2)
  // the only unit, which no off-diagonal edge can absorb. The builder
  // throws; every service entry point must turn that into an error (a
  // daemon would otherwise terminate on a client's --prob-scale).
  TaskSpec Spec = testSpec(
      Hamiltonian::parse({{0.5, "ZZ"}, {0.3, "XX"}, {0.2, "YI"}}));
  Spec.Flow.ProbScale = 1;
  SimulationService Service;
  std::string Error;
  EXPECT_FALSE(Service.run(Spec, &Error));
  EXPECT_NE(Error.find("MCFP builder"), std::string::npos) << Error;
  Error.clear();
  EXPECT_FALSE(Service.prewarm(Spec, &Error));
  EXPECT_NE(Error.find("MCFP builder"), std::string::npos) << Error;
  Error.clear();
  EXPECT_FALSE(Service.graphFor(Spec, &Error));
  EXPECT_NE(Error.find("MCFP builder"), std::string::npos) << Error;
  Error.clear();
  EXPECT_FALSE(Service.exportArtifacts(Spec, &Error));
  EXPECT_NE(Error.find("MCFP builder"), std::string::npos) << Error;
  // The default quantum solves the same operator.
  Spec.Flow = MCFPOptions();
  EXPECT_TRUE(Service.run(Spec, &Error)) << Error;
}

//===----------------------------------------------------------------------===//
// TaskSpec CLI parsing (shared flag surface)
//===----------------------------------------------------------------------===//

namespace {

std::optional<TaskSpec> parseArgs(std::vector<const char *> Args,
                                  std::string *Error = nullptr) {
  Args.insert(Args.begin(), "prog");
  CommandLine CL(static_cast<int>(Args.size()), Args.data());
  return TaskSpec::fromCommandLine(CL, Error);
}

} // namespace

TEST(TaskSpecParseTest, RejectsNegativeAndNonPositiveFlags) {
  std::string Error;
  // --rounds=-3 used to wrap to ~4 billion perturbation rounds.
  EXPECT_FALSE(parseArgs({"h.txt", "--rounds=-3"}, &Error));
  EXPECT_NE(Error.find("rounds"), std::string::npos);
  EXPECT_FALSE(parseArgs({"h.txt", "--seed=-1"}, &Error));
  EXPECT_NE(Error.find("seed"), std::string::npos);
  EXPECT_FALSE(parseArgs({"h.txt", "--epsilon=0"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", "--epsilon=-0.1"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", "--time=0"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", "--time=-2"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", "--shots=0"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", "--jobs=-2"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", "--columns=-4"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", "--eval-jobs=-1"}, &Error));
  EXPECT_NE(Error.find("eval-jobs"), std::string::npos);

  std::optional<TaskSpec> EvalJobs = parseArgs({"h.txt", "--eval-jobs=5"});
  ASSERT_TRUE(EvalJobs);
  EXPECT_EQ(EvalJobs->EvalJobs, 5u);
}

TEST(TaskSpecParseTest, PresetsAndOverridesNormalize) {
  std::optional<TaskSpec> GcRp = parseArgs({"h.txt", "--config=gc-rp"});
  ASSERT_TRUE(GcRp);
  EXPECT_DOUBLE_EQ(GcRp->Mix.WQd, 0.4);
  EXPECT_DOUBLE_EQ(GcRp->Mix.WGc, 0.3);
  EXPECT_DOUBLE_EQ(GcRp->Mix.WRp, 0.3);

  std::optional<TaskSpec> Custom =
      parseArgs({"h.txt", "--qd=1", "--gc=3"});
  ASSERT_TRUE(Custom);
  EXPECT_DOUBLE_EQ(Custom->Mix.WQd, 0.25);
  EXPECT_DOUBLE_EQ(Custom->Mix.WGc, 0.75);
  EXPECT_DOUBLE_EQ(Custom->Mix.WRp, 0.0);

  std::string Error;
  EXPECT_FALSE(parseArgs({"h.txt", "--config=nope"}, &Error));
  EXPECT_NE(Error.find("nope"), std::string::npos);
  EXPECT_FALSE(parseArgs({"h.txt", "--qd=0", "--gc=0"}, &Error));

  // Sources: positional xor --model.
  EXPECT_TRUE(parseArgs({"--model=Na+"}));
  EXPECT_FALSE(parseArgs({"h.txt", "--model=Na+"}, &Error));
  EXPECT_FALSE(parseArgs({}, &Error));
}

TEST(TaskSpecParseTest, ChannelMixRejectsNegativeAndAllZeroWeights) {
  std::string Error;
  // Negative and NaN weights name the offending flag.
  EXPECT_FALSE(parseArgs({"h.txt", "--qd=-0.5", "--gc=1"}, &Error));
  EXPECT_NE(Error.find("--qd"), std::string::npos);
  EXPECT_FALSE(parseArgs({"h.txt", "--rp=-1"}, &Error));
  EXPECT_NE(Error.find("--rp"), std::string::npos);
  EXPECT_FALSE(parseArgs({"h.txt", "--gc=nan"}, &Error));
  EXPECT_NE(Error.find("--gc"), std::string::npos);
  // An all-zero mix cannot normalize; the error says so instead of
  // reporting a generic parse failure.
  EXPECT_FALSE(parseArgs({"h.txt", "--qd=0", "--gc=0", "--rp=0"}, &Error));
  EXPECT_NE(Error.find("all zero"), std::string::npos);
}

TEST(TaskSpecParseTest, RejectsNonFiniteTimeAndEpsilon) {
  // NaN passes every ordered comparison, so `x <= 0` checks used to let
  // --time=nan through to the compiler.
  std::string Error;
  EXPECT_FALSE(parseArgs({"h.txt", "--time=nan"}, &Error));
  EXPECT_NE(Error.find("finite"), std::string::npos);
  EXPECT_FALSE(parseArgs({"h.txt", "--time=inf"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", "--epsilon=nan"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", "--epsilon=inf"}, &Error));
}

TEST(TaskSpecParseTest, NoiseFlagsParseAndValidate) {
  std::optional<TaskSpec> Noisy = parseArgs(
      {"h.txt", "--noise=depolarizing", "--noise-prob=0.02",
       "--noise-2q-factor=1.5", "--noise-mode=density", "--columns=4"});
  ASSERT_TRUE(Noisy);
  EXPECT_EQ(Noisy->Noise.Kind, NoiseChannelKind::Depolarizing);
  EXPECT_DOUBLE_EQ(Noisy->Noise.Prob, 0.02);
  EXPECT_DOUBLE_EQ(Noisy->Noise.TwoQubitFactor, 1.5);
  EXPECT_EQ(Noisy->Noise.Mode, NoiseMode::Density);
  EXPECT_TRUE(Noisy->validate());
  EXPECT_TRUE(Noisy->Noise.enabled());

  // The default spec is inert.
  std::optional<TaskSpec> Default = parseArgs({"h.txt"});
  ASSERT_TRUE(Default);
  EXPECT_FALSE(Default->Noise.enabled());

  std::string Error;
  EXPECT_FALSE(parseArgs({"h.txt", "--noise=bitflip"}, &Error));
  EXPECT_NE(Error.find("bitflip"), std::string::npos);
  // Noise knobs without a channel are a spec error, not a silent no-op.
  EXPECT_FALSE(parseArgs({"h.txt", "--noise-prob=0.1"}, &Error));
  EXPECT_NE(Error.find("--noise=MODEL"), std::string::npos);
  EXPECT_FALSE(parseArgs({"h.txt", "--noise-mode=density"}, &Error));
  // Probabilities outside [0, 1] (including NaN) and non-positive or
  // non-finite factors are rejected at parse time.
  const char *Phase = "--noise=phase-flip";
  EXPECT_FALSE(parseArgs({"h.txt", Phase, "--noise-prob=1.5"}, &Error));
  EXPECT_NE(Error.find("[0, 1]"), std::string::npos);
  EXPECT_FALSE(parseArgs({"h.txt", Phase, "--noise-prob=-0.1"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", Phase, "--noise-prob=nan"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", Phase, "--noise-2q-factor=0"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", Phase, "--noise-2q-factor=-2"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", Phase, "--noise-2q-factor=nan"}, &Error));
  EXPECT_FALSE(parseArgs({"h.txt", Phase, "--noise-mode=exact"}, &Error));

  // validate(): enabled noise demands fidelity columns.
  std::optional<TaskSpec> NoColumns =
      parseArgs({"h.txt", Phase, "--noise-prob=0.1"});
  ASSERT_TRUE(NoColumns);
  EXPECT_FALSE(NoColumns->validate(&Error));
  EXPECT_NE(Error.find("--columns"), std::string::npos);
}

TEST(TaskSpecParseTest, NoiseOffSpecsKeepContentKeys) {
  // The noise fields are mixed into contentKey only when the channel is
  // enabled: every pre-existing noiseless spec — and every disabled
  // spelling of one — must keep its exact key so on-disk manifests and
  // cache entries stay valid.
  TaskSpec Base = testSpec(testHamiltonian());
  const uint64_t DefaultKey = Base.contentKey();
  Base.Noise.Prob = 0.5; // ignored without a channel
  EXPECT_EQ(Base.contentKey(), DefaultKey);
  Base.Noise.Kind = NoiseChannelKind::Depolarizing;
  Base.Noise.Prob = 0.0; // a zero-rate channel is equally inert
  EXPECT_EQ(Base.contentKey(), DefaultKey);

  // Enabled noise forces a distinct key, and every knob participates.
  Base.Noise.Prob = 0.1;
  const uint64_t NoisyKey = Base.contentKey();
  EXPECT_NE(NoisyKey, DefaultKey);
  Base.Noise.Mode = NoiseMode::Density;
  EXPECT_NE(Base.contentKey(), NoisyKey);
  Base.Noise.Mode = NoiseMode::Stochastic;
  Base.Noise.TwoQubitFactor = 2.0;
  EXPECT_NE(Base.contentKey(), NoisyKey);
  Base.Noise.TwoQubitFactor = 1.0;
  Base.Noise.Kind = NoiseChannelKind::PhaseFlip;
  EXPECT_NE(Base.contentKey(), NoisyKey);
  Base.Noise.Kind = NoiseChannelKind::Depolarizing;
  EXPECT_EQ(Base.contentKey(), NoisyKey);
}
