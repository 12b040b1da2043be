//===- tests/ShardTest.cpp - Sharding contracts ---------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The contracts of the sharding layer:
//   * ShardPlan splits are contiguous, covering, and near-even (uneven
//     remainders go to the leading shards),
//   * ShardManifest round-trips bit-exactly and rejects truncation, bit
//     flips, and header inconsistencies,
//   * the merged output of a K-shard run is bit-identical to the
//     single-process run for K in {1, 2, 5}, including uneven splits and
//     fidelity samples,
//   * a corrupted or stale manifest is reported and its range re-run; a
//     manifest from a different Hamiltonian is rejected by fingerprint,
//   * valid manifests in the work directory are reused (crash recovery),
//     and a fully resumed run does no pre-warm work,
//   * a manifest that cannot be written costs resumability, not the
//     merged result,
//   * concurrent local ranges on one service produce the same bits with
//     exactly one MCFP solve per component (Pgc, and Prp for gc-rp)
//     across the whole run, with no cache directory,
//   * local ranges that fail after a successful prewarm fail the run at
//     once, naming the failure, with no manifest written,
//   * marqsim-cli rejects unknown and retired flags as usage errors, and
//     its --stats reports the set-up wall time of a non-sharded run.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardCoordinator.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

using namespace marqsim;

namespace {

/// A small strongly-interacting Hamiltonian for shard tests.
Hamiltonian testHamiltonian() {
  return Hamiltonian::parse({{1.0, "IIZY"},
                             {0.8, "XXII"},
                             {0.6, "ZXZY"},
                             {0.4, "IZZX"},
                             {0.2, "XYYZ"}});
}

/// The same register with one coefficient changed: a different content
/// fingerprint.
Hamiltonian otherHamiltonian() {
  return Hamiltonian::parse({{1.0, "IIZY"},
                             {0.8, "XXII"},
                             {0.6, "ZXZY"},
                             {0.4, "IZZX"},
                             {0.3, "XYYZ"}});
}

/// A sampling spec with per-shot fidelity (so manifests carry doubles
/// whose exact round trip matters).
TaskSpec testSpec(size_t Shots = 6) {
  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(testHamiltonian());
  Spec.Mix = *ChannelMix::preset("gc");
  Spec.Time = 0.5;
  Spec.Epsilon = 0.05;
  Spec.Shots = Shots;
  Spec.Seed = 31337;
  Spec.Evaluate.FidelityColumns = 4;
  return Spec;
}

/// A fresh directory under the test temp dir.
std::string freshDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Asserts \p Merged reproduces \p Single bit for bit (everything except
/// wall-clock times).
void expectBitIdentical(const TaskResult &Single, const TaskResult &Merged) {
  EXPECT_EQ(Single.Fingerprint, Merged.Fingerprint);
  EXPECT_EQ(Single.NumSamples, Merged.NumSamples);
  EXPECT_EQ(Single.Batch.batchHash(), Merged.Batch.batchHash());
  EXPECT_EQ(Single.Batch.StrategyName, Merged.Batch.StrategyName);
  ASSERT_EQ(Single.Batch.Shots.size(), Merged.Batch.Shots.size());
  for (size_t I = 0; I < Single.Batch.Shots.size(); ++I) {
    const ShotSummary &A = Single.Batch.Shots[I];
    const ShotSummary &B = Merged.Batch.Shots[I];
    EXPECT_EQ(A.SequenceHash, B.SequenceHash) << "shot " << I;
    EXPECT_EQ(A.NumSamples, B.NumSamples) << "shot " << I;
    EXPECT_EQ(A.Counts.CNOTs, B.Counts.CNOTs) << "shot " << I;
    EXPECT_EQ(A.Counts.SingleQubit, B.Counts.SingleQubit) << "shot " << I;
    EXPECT_EQ(A.Stats.CancelledCNOTs, B.Stats.CancelledCNOTs) << "shot " << I;
    EXPECT_EQ(A.Stats.CancelledSingles, B.Stats.CancelledSingles)
        << "shot " << I;
  }
  // Aggregates recompute through the same Welford pass: exact equality.
  EXPECT_EQ(Single.Batch.CNOTs.Mean, Merged.Batch.CNOTs.Mean);
  EXPECT_EQ(Single.Batch.CNOTs.Std, Merged.Batch.CNOTs.Std);
  EXPECT_EQ(Single.Batch.Totals.Mean, Merged.Batch.Totals.Mean);
  EXPECT_EQ(Single.Batch.TotalCancelledCNOTs,
            Merged.Batch.TotalCancelledCNOTs);
  ASSERT_EQ(Single.HasFidelity, Merged.HasFidelity);
  ASSERT_EQ(Single.ShotFidelities.size(), Merged.ShotFidelities.size());
  for (size_t I = 0; I < Single.ShotFidelities.size(); ++I)
    EXPECT_EQ(Single.ShotFidelities[I], Merged.ShotFidelities[I])
        << "fidelity of shot " << I;
  EXPECT_EQ(Single.Fidelity.Mean, Merged.Fidelity.Mean);
  EXPECT_EQ(Single.Fidelity.Std, Merged.Fidelity.Std);
}

} // namespace

//===----------------------------------------------------------------------===//
// ShardPlan
//===----------------------------------------------------------------------===//

TEST(ShardPlanTest, SplitsAreContiguousCoveringAndNearEven) {
  for (size_t Shots : {1u, 2u, 5u, 6u, 7u, 11u, 64u})
    for (unsigned K : {1u, 2u, 3u, 5u, 8u}) {
      ShardPlan Plan = ShardPlan::split(Shots, K);
      EXPECT_EQ(Plan.shardCount(), std::min<size_t>(K, Shots))
          << Shots << "/" << K;
      size_t Next = 0, MinCount = Shots, MaxCount = 0;
      for (const ShotRange &R : Plan.Ranges) {
        EXPECT_EQ(R.Begin, Next);
        EXPECT_GE(R.Count, 1u);
        MinCount = std::min(MinCount, R.Count);
        MaxCount = std::max(MaxCount, R.Count);
        Next = R.end();
      }
      EXPECT_EQ(Next, Shots) << Shots << "/" << K;
      EXPECT_LE(MaxCount - MinCount, 1u) << Shots << "/" << K;
    }
}

TEST(ShardPlanTest, UnevenRemaindersGoToLeadingShards) {
  ShardPlan Plan = ShardPlan::split(7, 2);
  ASSERT_EQ(Plan.shardCount(), 2u);
  EXPECT_EQ(Plan.Ranges[0].Count, 4u);
  EXPECT_EQ(Plan.Ranges[1].Count, 3u);

  Plan = ShardPlan::split(6, 5);
  ASSERT_EQ(Plan.shardCount(), 5u);
  EXPECT_EQ(Plan.Ranges[0].Count, 2u);
  for (size_t I = 1; I < 5; ++I)
    EXPECT_EQ(Plan.Ranges[I].Count, 1u);

  // Zero shards behaves as one; zero shots yields an empty plan.
  EXPECT_EQ(ShardPlan::split(3, 0).shardCount(), 1u);
  EXPECT_EQ(ShardPlan::split(0, 4).shardCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Ranged service runs
//===----------------------------------------------------------------------===//

TEST(ShotRangeTest, RangedRunsUseGlobalShotIndices) {
  SimulationService Service;
  TaskSpec Spec = testSpec(6);
  std::optional<TaskResult> Full = Service.run(Spec);
  ASSERT_TRUE(Full);
  std::optional<TaskResult> Tail = Service.run(Spec, ShotRange{4, 2});
  ASSERT_TRUE(Tail);
  ASSERT_EQ(Tail->Batch.Shots.size(), 2u);
  for (size_t I = 0; I < 2; ++I) {
    EXPECT_EQ(Tail->Batch.Shots[I].SequenceHash,
              Full->Batch.Shots[4 + I].SequenceHash);
    EXPECT_EQ(Tail->ShotFidelities[I], Full->ShotFidelities[4 + I]);
  }
  // ExportShotZero is global: a range not containing shot 0 ignores it.
  Spec.Evaluate.ExportShotZero = true;
  std::optional<TaskResult> NoZero = Service.run(Spec, ShotRange{2, 2});
  ASSERT_TRUE(NoZero);
  EXPECT_FALSE(NoZero->HasShotZero);
  std::optional<TaskResult> WithZero = Service.run(Spec, ShotRange{0, 2});
  ASSERT_TRUE(WithZero);
  EXPECT_TRUE(WithZero->HasShotZero);

  std::string Error;
  EXPECT_FALSE(Service.run(Spec, ShotRange{5, 2}, &Error));
  EXPECT_NE(Error.find("shot range"), std::string::npos);
  EXPECT_FALSE(Service.run(Spec, ShotRange{0, 0}, &Error));
}

//===----------------------------------------------------------------------===//
// ShardManifest
//===----------------------------------------------------------------------===//

TEST(ShardManifestTest, RoundTripsBitExactly) {
  SimulationService Service;
  TaskSpec Spec = testSpec(5);
  std::string Error;
  std::optional<ShardManifest> M =
      ShardCoordinator::runShard(Service, Spec, 1, 2, &Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_EQ(M->Range.Begin, 3u); // 5 shots over 2 shards: 3 + 2
  EXPECT_EQ(M->Range.Count, 2u);

  std::optional<ShardManifest> Back = ShardManifest::parse(M->serialize());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Fingerprint, M->Fingerprint);
  EXPECT_EQ(Back->Seed, M->Seed);
  EXPECT_EQ(Back->StrategyName, M->StrategyName);
  EXPECT_EQ(Back->TotalShots, M->TotalShots);
  EXPECT_EQ(Back->NumSamples, M->NumSamples);
  EXPECT_EQ(Back->rangeHash(), M->rangeHash());
  ASSERT_EQ(Back->Shots.size(), M->Shots.size());
  for (size_t I = 0; I < M->Shots.size(); ++I) {
    EXPECT_EQ(Back->Shots[I].SequenceHash, M->Shots[I].SequenceHash);
    EXPECT_EQ(Back->Shots[I].Counts.CNOTs, M->Shots[I].Counts.CNOTs);
  }
  ASSERT_EQ(Back->Fidelities.size(), M->Fidelities.size());
  for (size_t I = 0; I < M->Fidelities.size(); ++I)
    EXPECT_EQ(Back->Fidelities[I], M->Fidelities[I]) << "exact IEEE-754";
}

TEST(ShardManifestTest, RejectsTruncationBitFlipsAndBadHeaders) {
  SimulationService Service;
  TaskSpec Spec = testSpec(4);
  std::optional<ShardManifest> M =
      ShardCoordinator::runShard(Service, Spec, 0, 2);
  ASSERT_TRUE(M);
  std::string Text = M->serialize();
  std::string Error;

  EXPECT_FALSE(ShardManifest::parse(Text.substr(0, Text.size() / 2), &Error));
  EXPECT_NE(Error.find("checksum"), std::string::npos);

  // Flip one character somewhere in the payload: the checksum catches it
  // even where the field itself would still parse.
  for (size_t Pos : {Text.find("range 0"), Text.size() / 3}) {
    ASSERT_NE(Pos, std::string::npos);
    std::string Flipped = Text;
    Flipped[Pos] = Flipped[Pos] == '0' ? '1' : '0';
    EXPECT_FALSE(ShardManifest::parse(Flipped, &Error)) << "pos " << Pos;
  }

  // A manifest from a different format version fails the magic check and
  // is re-run, never misparsed: a future one, and a v3 one (whose cache
  // line still held the superoperator counters) even under a valid
  // checksum.
  EXPECT_FALSE(ShardManifest::parse("marqsim-shard-v9\n" + Text, &Error));
  std::string Body;
  ASSERT_TRUE(serial::splitChecksummed(Text, Body));
  const std::string V4 = "marqsim-shard-v4\n";
  ASSERT_EQ(Body.compare(0, V4.size(), V4), 0);
  EXPECT_FALSE(ShardManifest::parse(
      serial::withChecksum("marqsim-shard-v3\n" + Body.substr(V4.size())),
      &Error));
  EXPECT_NE(Error.find("bad magic"), std::string::npos);
  EXPECT_FALSE(ShardManifest::parse("", &Error));

  // A self-consistent file whose shot lines disagree with the declared
  // range is rejected even with a fresh checksum.
  ShardManifest Bad = *M;
  Bad.Range.Count += 1;
  EXPECT_FALSE(ShardManifest::parse(Bad.serialize(), &Error));
  EXPECT_NE(Error.find("shot count"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Merged bit-identity (in-process coordinator)
//===----------------------------------------------------------------------===//

TEST(ShardCoordinatorTest, MergedOutputBitIdenticalForK125) {
  // 6 shots: K=5 forces the uneven 2+1+1+1+1 split.
  TaskSpec Spec = testSpec(6);
  SimulationService Reference;
  std::optional<TaskResult> Single = Reference.run(Spec);
  ASSERT_TRUE(Single);

  for (unsigned K : {1u, 2u, 5u}) {
    ShardOptions Options;
    Options.ShardCount = K;
    Options.WorkDir = freshDir("shard_merge_k" + std::to_string(K));
    ShardCoordinator Coordinator(Options);
    std::string Error;
    ShardReport Report;
    std::optional<TaskResult> Merged =
        Coordinator.run(Spec, &Error, &Report);
    ASSERT_TRUE(Merged) << "K=" << K << ": " << Error;
    EXPECT_EQ(Report.Plan.shardCount(), K);
    EXPECT_EQ(Report.Retries, 0u);
    expectBitIdentical(*Single, *Merged);
  }
}

TEST(ShardCoordinatorTest, ValidManifestsAreReused) {
  TaskSpec Spec = testSpec(6);
  ShardOptions Options;
  Options.ShardCount = 3;
  Options.WorkDir = freshDir("shard_reuse");

  ShardReport First;
  std::optional<TaskResult> A =
      ShardCoordinator(Options).run(Spec, nullptr, &First);
  ASSERT_TRUE(A);
  EXPECT_EQ(First.Reused, 0u);

  // Same work directory, fresh coordinator: all ranges resume from disk.
  ShardReport Second;
  std::optional<TaskResult> B =
      ShardCoordinator(Options).run(Spec, nullptr, &Second);
  ASSERT_TRUE(B);
  EXPECT_EQ(Second.Reused, 3u);
  EXPECT_EQ(A->Batch.batchHash(), B->Batch.batchHash());
  // Nothing left to run, so nothing to pre-warm: a fully resumed run
  // neither solves nor evolves the fidelity columns.
  EXPECT_EQ(First.LocalStats.GCSolveMisses, 1u);
  EXPECT_EQ(First.LocalStats.EvaluatorMisses, 1u);
  EXPECT_EQ(Second.LocalStats.GCSolveMisses, 0u);
  EXPECT_EQ(Second.LocalStats.EvaluatorMisses, 0u);
  EXPECT_TRUE(Second.Notes.empty());

  // A different seed must not reuse them (stale-manifest detection).
  TaskSpec Reseeded = Spec;
  Reseeded.Seed += 1;
  ShardReport Third;
  std::optional<TaskResult> C =
      ShardCoordinator(Options).run(Reseeded, nullptr, &Third);
  ASSERT_TRUE(C);
  EXPECT_EQ(Third.Reused, 0u);
  EXPECT_FALSE(Third.Notes.empty());
  EXPECT_NE(A->Batch.batchHash(), C->Batch.batchHash());
}

TEST(ShardCoordinatorTest, ChangedParametersInvalidateStaleManifests) {
  // Fingerprint, seed, and shot count all match — only a compilation
  // knob differs. TaskSpec::contentKey in the manifest must force the
  // re-run; without it the stale epsilon-0.05 results would merge.
  TaskSpec Spec = testSpec(6);
  ShardOptions Options;
  Options.ShardCount = 2;
  Options.WorkDir = freshDir("shard_stale_params");
  ASSERT_TRUE(ShardCoordinator(Options).run(Spec));

  for (auto Mutate : std::vector<std::function<void(TaskSpec &)>>{
           [](TaskSpec &S) { S.Epsilon = 0.02; },
           [](TaskSpec &S) { S.Time = 0.75; },
           [](TaskSpec &S) { S.Mix = ChannelMix{0.6, 0.4, 0.0}; },
           [](TaskSpec &S) { S.Evaluate.ColumnSeed += 1; }}) {
    TaskSpec Changed = Spec;
    Mutate(Changed);
    SimulationService Reference;
    std::optional<TaskResult> Single = Reference.run(Changed);
    ASSERT_TRUE(Single);
    ShardReport Report;
    std::optional<TaskResult> Merged =
        ShardCoordinator(Options).run(Changed, nullptr, &Report);
    ASSERT_TRUE(Merged);
    EXPECT_EQ(Report.Reused, 0u) << "stale manifests must not be reused";
    ASSERT_FALSE(Report.Notes.empty());
    EXPECT_NE(Report.Notes[0].find("configuration mismatch"),
              std::string::npos)
        << Report.Notes[0];
    expectBitIdentical(*Single, *Merged);
    // Restore the directory to Spec's manifests for the next mutation.
    ASSERT_TRUE(ShardCoordinator(Options).run(Spec));
  }
}

TEST(ShardCoordinatorTest, CorruptManifestIsReportedAndReRun) {
  TaskSpec Spec = testSpec(6);
  SimulationService Reference;
  std::optional<TaskResult> Single = Reference.run(Spec);
  ASSERT_TRUE(Single);

  ShardOptions Options;
  Options.ShardCount = 3;
  Options.WorkDir = freshDir("shard_corrupt");
  ASSERT_TRUE(ShardCoordinator(Options).run(Spec));

  // Truncate one manifest and bit-flip another; the third stays valid.
  {
    std::string Path = ShardCoordinator::manifestPath(Options.WorkDir, 1);
    std::ifstream In(Path);
    std::string Text((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    In.close();
    std::ofstream(Path) << Text.substr(0, Text.size() / 3);
  }
  {
    std::string Path = ShardCoordinator::manifestPath(Options.WorkDir, 2);
    std::fstream File(Path, std::ios::in | std::ios::out);
    File.seekp(40);
    File.put('x');
  }

  ShardReport Report;
  std::string Error;
  std::optional<TaskResult> Merged =
      ShardCoordinator(Options).run(Spec, &Error, &Report);
  ASSERT_TRUE(Merged) << Error;
  EXPECT_EQ(Report.Reused, 1u);
  ASSERT_GE(Report.Notes.size(), 2u);
  for (const std::string &Note : Report.Notes)
    EXPECT_NE(Note.find("rejected"), std::string::npos) << Note;
  expectBitIdentical(*Single, *Merged);
}

TEST(ShardCoordinatorTest, UnwritableManifestIsReportedAndStillMerges) {
  TaskSpec Spec = testSpec(6);
  SimulationService Reference;
  std::optional<TaskResult> Single = Reference.run(Spec);
  ASSERT_TRUE(Single);

  // A non-empty directory squats on shard 1's manifest path: the reuse
  // pass cannot read or remove it, and the range's manifest cannot be
  // written there. Losing the file costs resumability, not the result.
  ShardOptions Options;
  Options.ShardCount = 3;
  Options.WorkDir = freshDir("shard_unwritable");
  std::string Squatter = ShardCoordinator::manifestPath(Options.WorkDir, 1);
  std::filesystem::create_directories(Squatter);
  std::ofstream(Squatter + "/keep") << "x";

  ShardReport Report;
  std::string Error;
  std::optional<TaskResult> Merged =
      ShardCoordinator(Options).run(Spec, &Error, &Report);
  ASSERT_TRUE(Merged) << Error;
  expectBitIdentical(*Single, *Merged);
  EXPECT_EQ(Report.Reused, 0u);
  EXPECT_EQ(Report.Retries, 0u);
  bool Persist = false;
  for (const std::string &Note : Report.Notes)
    Persist |= Note.find("shard 1: cannot persist manifest") == 0;
  EXPECT_TRUE(Persist) << "no persist note among " << Report.Notes.size();
  EXPECT_TRUE(std::filesystem::is_directory(Squatter));
  for (unsigned I : {0u, 2u})
    EXPECT_TRUE(std::filesystem::is_regular_file(
        ShardCoordinator::manifestPath(Options.WorkDir, I)))
        << "shard " << I;
}

TEST(ShardCoordinatorTest, ForeignFingerprintManifestIsRejectedAndReRun) {
  TaskSpec Spec = testSpec(6);
  SimulationService Reference;
  std::optional<TaskResult> Single = Reference.run(Spec);
  ASSERT_TRUE(Single);

  ShardOptions Options;
  Options.ShardCount = 2;
  Options.WorkDir = freshDir("shard_foreign");
  std::filesystem::create_directories(Options.WorkDir);

  // Pre-place a perfectly well-formed manifest compiled from a *different*
  // Hamiltonian at shard 0's path.
  TaskSpec Foreign = Spec;
  Foreign.Source = HamiltonianSource::fromHamiltonian(otherHamiltonian());
  SimulationService ForeignService;
  std::optional<ShardManifest> ForeignManifest =
      ShardCoordinator::runShard(ForeignService, Foreign, 0, 2);
  ASSERT_TRUE(ForeignManifest);
  ASSERT_TRUE(ForeignManifest->writeFile(
      ShardCoordinator::manifestPath(Options.WorkDir, 0)));

  ShardReport Report;
  std::optional<TaskResult> Merged =
      ShardCoordinator(Options).run(Spec, nullptr, &Report);
  ASSERT_TRUE(Merged);
  EXPECT_EQ(Report.Reused, 0u);
  ASSERT_FALSE(Report.Notes.empty());
  EXPECT_NE(Report.Notes[0].find("fingerprint mismatch"),
            std::string::npos);
  expectBitIdentical(*Single, *Merged);
}

TEST(ShardCoordinatorTest, MergeRejectsInconsistentManifestSets) {
  TaskSpec Spec = testSpec(6);
  SimulationService Service;
  std::vector<ShardManifest> Manifests;
  for (unsigned I = 0; I < 2; ++I) {
    std::optional<ShardManifest> M =
        ShardCoordinator::runShard(Service, Spec, I, 2);
    ASSERT_TRUE(M);
    Manifests.push_back(std::move(*M));
  }
  uint64_t Fingerprint = Manifests[0].Fingerprint;
  ASSERT_TRUE(
      ShardCoordinator::merge(Spec, Fingerprint, Manifests, nullptr));

  std::string Error;
  // Fingerprint-mismatch rejection.
  EXPECT_FALSE(
      ShardCoordinator::merge(Spec, Fingerprint ^ 1, Manifests, &Error));
  EXPECT_NE(Error.find("fingerprint mismatch"), std::string::npos);

  // Coverage gap: drop the second half.
  EXPECT_FALSE(ShardCoordinator::merge(Spec, Fingerprint, {Manifests[0]},
                                       &Error));
  EXPECT_NE(Error.find("coverage"), std::string::npos);

  // Overlap: the first half twice.
  EXPECT_FALSE(ShardCoordinator::merge(
      Spec, Fingerprint, {Manifests[0], Manifests[0]}, &Error));

  // Seed disagreement.
  std::vector<ShardManifest> Reseeded = Manifests;
  Reseeded[1].Seed += 1;
  EXPECT_FALSE(
      ShardCoordinator::merge(Spec, Fingerprint, Reseeded, &Error));
  EXPECT_NE(Error.find("seed"), std::string::npos);

  // Task-parameter disagreement (same fingerprint and seed).
  TaskSpec Retargeted = Spec;
  Retargeted.Epsilon *= 2;
  EXPECT_FALSE(
      ShardCoordinator::merge(Retargeted, Fingerprint, Manifests, &Error));
  EXPECT_NE(Error.find("configuration mismatch"), std::string::npos);
}

TEST(ShardCoordinatorTest, ConcurrentRangesShareOneServiceAndOneSolve) {
  // gc has one MCFP component (Pgc); gc-rp adds the Prp rounds, which
  // must be solved once per run as well, not once per range.
  for (const char *Preset : {"gc", "gc-rp"}) {
    SCOPED_TRACE(Preset);
    TaskSpec Spec = testSpec(5); // 3 shards -> uneven 2+2+1
    Spec.Mix = *ChannelMix::preset(Preset);
    Spec.Evaluate.FidelityColumns = 2;
    // Non-default values for spec fields the defaults would hide: a field
    // lost on the way to a range would flunk the SpecKey check at merge.
    Spec.Flow.ProbScale = 500'000'000;
    Spec.Evaluate.ColumnSeed = 11;
    Spec.PerturbSeed = 0xFEED;

    SimulationService Reference;
    std::optional<TaskResult> Single = Reference.run(Spec);
    ASSERT_TRUE(Single);

    // No CacheDir: the one-solve contract rests on the shared service
    // alone.
    ShardOptions Options;
    Options.ShardCount = 3;
    Options.WorkDir = freshDir(std::string("shard_concurrent_") + Preset);
    ShardCoordinator Coordinator(Options);
    std::string Error;
    ShardReport Report;
    std::optional<TaskResult> Merged =
        Coordinator.run(Spec, &Error, &Report);
    ASSERT_TRUE(Merged) << Error;
    expectBitIdentical(*Single, *Merged);

    // The pre-warm performed the only solve of each component and the
    // only column evolution; every range resolved them from the same
    // in-memory store.
    const size_t WantRP = Spec.Mix.WRp > 0.0 ? 1u : 0u;
    EXPECT_EQ(Report.LocalStats.GCSolveMisses, 1u);
    EXPECT_EQ(Report.LocalStats.RPSolveMisses, WantRP);
    EXPECT_EQ(Report.LocalStats.EvaluatorMisses, 1u);
    EXPECT_EQ(Report.WorkerStats.matrixMisses(), 0u);
    EXPECT_EQ(Report.WorkerStats.EvaluatorMisses, 0u);
    EXPECT_EQ(Report.Retries, 0u);
    EXPECT_TRUE(Report.Notes.empty());
    for (unsigned I = 0; I < 3; ++I)
      EXPECT_TRUE(std::filesystem::exists(
          ShardCoordinator::manifestPath(Options.WorkDir, I)))
          << "shard " << I;
  }
}

TEST(ShardCoordinatorTest, RangesFailingAfterASuccessfulPrewarmFailTheRun) {
  // The prewarm resolves only the bundle and the target columns, so it
  // accepts a density-noise spec on 7 qubits; every range then fails in
  // run() at the density oracle's 6-qubit cap. The run must fail at once,
  // naming the failed ranges and the cap, and persist no manifest.
  TaskSpec Spec = testSpec(4);
  Spec.Source = HamiltonianSource::fromHamiltonian(
      Hamiltonian::parse({{1.0, "IIZYXZI"},
                          {0.8, "XXIIZZY"},
                          {0.6, "ZXZYIIX"},
                          {0.4, "IZZXYXZ"}}));
  Spec.Evaluate.FidelityColumns = 2;
  Spec.Noise.Kind = NoiseChannelKind::Depolarizing;
  Spec.Noise.Prob = 0.01;
  Spec.Noise.Mode = NoiseMode::Density;
  std::string Error;
  ASSERT_TRUE(SimulationService().prewarm(Spec, &Error)) << Error;

  ShardOptions Options;
  Options.ShardCount = 2;
  Options.WorkDir = freshDir("shard_ranges_fail_after_prewarm");
  ShardCoordinator Coordinator(Options);
  const auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(Coordinator.run(Spec, &Error));
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::seconds(60));
  EXPECT_NE(Error.find("range(s) failed"), std::string::npos) << Error;
  EXPECT_NE(Error.find("capped at 6 qubits"), std::string::npos) << Error;
  EXPECT_TRUE(std::filesystem::is_empty(Options.WorkDir))
      << "a failed range left a manifest behind";
}

//===----------------------------------------------------------------------===//
// marqsim-cli flags
//===----------------------------------------------------------------------===//

TEST(CliFlagTest, UnknownFlagsAreUsageErrorsNamingTheFlag) {
  // Path of the marqsim-cli binary, provided by CMake through the test
  // environment.
  const char *Binary = std::getenv("MARQSIM_CLI");
  if (!Binary)
    GTEST_SKIP() << "MARQSIM_CLI not set (run through ctest)";
  // Removed flags (the bare switch --cdf among them), a typo, and flags of
  // the retired shard worker mode: none may run something other than what
  // was asked.
  const std::pair<std::string, std::string> Flags[] = {
      {"precision", "fp32"},
      {"cdf", ""},
      {"colums", "8"},
      {"shard-index", "0"},
      {"time-bits", "3ff0000000000000"},
      {"prob-scale", "5"}};
  const std::string Log = testing::TempDir() + "cli_unknown_flag.log";
  for (const auto &[Name, Value] : Flags) {
    const std::string Command =
        std::string("\"") + Binary + "\" --model=Na+ --columns=1 --" + Name +
        (Value.empty() ? "" : "=" + Value) + " > /dev/null 2> \"" + Log + "\"";
    const int Status = std::system(Command.c_str());
    ASSERT_TRUE(WIFEXITED(Status)) << Name;
    EXPECT_EQ(WEXITSTATUS(Status), 1) << Name;
    std::ifstream In(Log);
    const std::string Text((std::istreambuf_iterator<char>(In)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(Text.find("unknown flag --" + Name), std::string::npos) << Text;
  }
}

TEST(CliFlagTest, StatsPrintsTheSetUpWallTimeBesideAnUnchangedBatchHash) {
  const char *Binary = std::getenv("MARQSIM_CLI");
  if (!Binary)
    GTEST_SKIP() << "MARQSIM_CLI not set (run through ctest)";
  // A gc-rp run solves the MCFP during set-up; --stats reports that time on
  // its own line, and the batch it precedes hashes as before the line
  // existed.
  const std::string Log = testing::TempDir() + "cli_setup_line.log";
  const std::string Command =
      std::string("\"") + Binary +
      "\" --model=Na+ --config=gc-rp --rounds=2 --shots=4 --seed=3 --stats "
      "--out=/dev/null 2> \"" +
      Log + "\"";
  const int Status = std::system(Command.c_str());
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  std::ifstream In(Log);
  const std::string Text((std::istreambuf_iterator<char>(In)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find(", hash=2419844960494149181\n"), std::string::npos)
      << Text;
  const size_t Setup = Text.find("\nsetup: wall=");
  ASSERT_NE(Setup, std::string::npos) << Text;
  const size_t Value = Setup + std::string("\nsetup: wall=").size();
  const size_t End = Text.find(" s\n", Value);
  ASSERT_NE(End, std::string::npos) << Text;
  const double Seconds = std::stod(Text.substr(Value, End - Value));
  EXPECT_GE(Seconds, 0.0);
  EXPECT_LT(Text.find("\nsetup: wall="), Text.find("\nphase: wall="));
}
