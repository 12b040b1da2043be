//===- tests/StoreTest.cpp - Tiered ArtifactStore contracts -------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The contracts of the unified caching layer:
//   * the memory tier is a size-accounted LRU: entries are charged their
//     codec-reported bytes, eviction follows recency exactly, and the
//     counters reconcile with the charges,
//   * lookups are single-flight: concurrent get() calls for one key
//     perform one computation,
//   * every artifact type (component matrix, alias bundle, fidelity
//     columns) round-trips through the disk tier bit-exactly,
//   * corruption of any artifact file falls back to recompute — and heals
//     the file — for every type,
//   * a capped store produces bit-identical results to an unbounded one
//     (evictions only ever cost recomputes),
//   * cache directories are validated up front (a file where a directory
//     should be, an unwritable parent).
//
//===----------------------------------------------------------------------===//

#include "service/SimulationService.h"
#include "store/Codecs.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

using namespace marqsim;

namespace {

/// A blob with an explicit size, for exercising the LRU accounting
/// without dragging real artifacts in.
struct Blob {
  std::string Payload;
};

ArtifactCodec<Blob> blobCodec() {
  ArtifactCodec<Blob> Codec;
  Codec.Size = [](const Blob &B) { return B.Payload.size(); };
  return Codec;
}

ArtifactKey blobKey(const std::string &Id) {
  return {ArtifactType::ComponentMatrix, Id};
}

/// A small strongly-interacting Hamiltonian (the ServiceTest operator).
Hamiltonian testHamiltonian() {
  return Hamiltonian::parse({{1.0, "IIZY"},
                             {0.8, "XXII"},
                             {0.6, "ZXZY"},
                             {0.4, "IZZX"},
                             {0.2, "XYYZ"}});
}

/// A sampling spec with fidelity columns, so a run touches all three
/// artifact types.
TaskSpec testSpec() {
  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(testHamiltonian());
  Spec.Mix = *ChannelMix::preset("gc");
  Spec.Time = 0.5;
  Spec.Epsilon = 0.05;
  Spec.Shots = 5;
  Spec.Seed = 31337;
  Spec.Evaluate.FidelityColumns = 4;
  return Spec;
}

std::string freshDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// The one cache file with extension \p Ext under \p Dir.
std::filesystem::path onlyFile(const std::string &Dir,
                               const std::string &Ext) {
  std::filesystem::path Found;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == Ext) {
      EXPECT_TRUE(Found.empty()) << "more than one " << Ext << " file";
      Found = Entry.path();
    }
  EXPECT_FALSE(Found.empty()) << "no " << Ext << " file in " << Dir;
  return Found;
}

std::string readAll(const std::filesystem::path &P) {
  std::ifstream In(P);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

/// Flips one hex character somewhere inside the payload (after the first
/// newline, clear of the magic header), leaving the checksum stale.
void flipOneChar(const std::filesystem::path &P) {
  std::string Text = readAll(P);
  size_t Pos = Text.find('\n') + 3;
  ASSERT_LT(Pos, Text.size());
  Text[Pos] = Text[Pos] == '0' ? '1' : '0';
  std::ofstream(P) << Text;
}

} // namespace

//===----------------------------------------------------------------------===//
// Memory tier: LRU order and byte accounting
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, LruEvictsLeastRecentlyUsedAndAccountsBytes) {
  ArtifactStore Store({/*CacheDir=*/"", /*MemoryLimitBytes=*/100});
  ArtifactCodec<Blob> Codec = blobCodec();
  auto Put = [&](const std::string &Id, size_t Bytes) {
    return Store.get<Blob>(blobKey(Id), Codec,
                           [&] { return Blob{std::string(Bytes, 'x')}; });
  };

  Put("a", 40);
  Put("b", 40);
  EXPECT_EQ(Store.bytesInUse(), 80u);
  EXPECT_EQ(Store.stats().Evictions, 0u);

  // Touch "a": it becomes most recent, so "b" is now the LRU victim.
  Put("a", 40);
  EXPECT_EQ(Store.stats().MemoryHits, 1u);

  // 120 > 100: exactly one eviction ("b"), and the books balance.
  Put("c", 40);
  ArtifactStore::Stats S = Store.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.EvictedBytes, 40u);
  EXPECT_EQ(S.BytesInUse, 80u);
  EXPECT_EQ(S.PeakBytes, 120u);

  // "a" survived (it was touched), "b" did not and must recompute.
  Put("a", 40);
  EXPECT_EQ(Store.stats().MemoryHits, 2u);
  Put("b", 40);
  EXPECT_EQ(Store.stats().Computes, 4u) << "evicted entry must recompute";
}

TEST(ArtifactStoreTest, OversizedEntryOvershootsInsteadOfThrashing) {
  ArtifactStore Store({"", 10});
  ArtifactCodec<Blob> Codec = blobCodec();
  Store.get<Blob>(blobKey("big"), Codec,
                  [] { return Blob{std::string(50, 'x')}; });
  // The just-inserted entry is never evicted, even over budget.
  EXPECT_EQ(Store.bytesInUse(), 50u);
  EXPECT_EQ(Store.stats().Evictions, 0u);
  Store.get<Blob>(blobKey("big"), Codec,
                  [] { return Blob{std::string(50, 'x')}; });
  EXPECT_EQ(Store.stats().MemoryHits, 1u);
  // The next insertion evicts it.
  Store.get<Blob>(blobKey("small"), Codec,
                  [] { return Blob{std::string(4, 'x')}; });
  EXPECT_EQ(Store.stats().Evictions, 1u);
  EXPECT_EQ(Store.bytesInUse(), 4u);
}

TEST(ArtifactStoreTest, UnlimitedStoreNeverEvicts) {
  ArtifactStore Store({"", 0});
  ArtifactCodec<Blob> Codec = blobCodec();
  for (int I = 0; I < 32; ++I)
    Store.get<Blob>(blobKey("blob" + std::to_string(I)), Codec,
                    [] { return Blob{std::string(1024, 'x')}; });
  EXPECT_EQ(Store.stats().Evictions, 0u);
  EXPECT_EQ(Store.bytesInUse(), 32u * 1024u);
}

//===----------------------------------------------------------------------===//
// Single flight
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, ConcurrentGetsComputeOnce) {
  ArtifactStore Store({"", 0});
  ArtifactCodec<Blob> Codec = blobCodec();
  std::atomic<int> Computes{0};
  std::vector<std::thread> Threads;
  std::vector<std::shared_ptr<const Blob>> Results(8);
  for (size_t I = 0; I < Results.size(); ++I)
    Threads.emplace_back([&, I] {
      Results[I] = Store.get<Blob>(blobKey("contended"), Codec, [&] {
        Computes++;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return Blob{"value"};
      });
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Computes.load(), 1) << "single-flight must hold under races";
  for (const auto &R : Results)
    EXPECT_EQ(R.get(), Results[0].get()) << "all callers share one value";
  EXPECT_EQ(Store.stats().Computes, 1u);
  EXPECT_EQ(Store.stats().MemoryHits, Results.size() - 1);
}

// A compute that throws hands the key back: the exception reaches its own
// caller, a caller waiting on that compute then resolves the key itself,
// and later lookups are served from memory. Nothing is charged or counted
// for the failed attempt.
TEST(ArtifactStoreTest, ThrowingComputeWakesWaiterWhichRetries) {
  ArtifactStore Store({"", 0});
  ArtifactCodec<Blob> Codec = blobCodec();
  std::atomic<bool> FailerStarted{false};
  std::atomic<int> Attempts{0};
  bool Threw = false;
  std::thread Failer([&] {
    try {
      Store.get<Blob>(blobKey("flaky"), Codec, [&]() -> Blob {
        Attempts++;
        FailerStarted = true;
        // Long enough for the waiter below to block on this compute.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::runtime_error("infeasible");
      });
    } catch (const std::runtime_error &) {
      Threw = true;
    }
  });
  while (!FailerStarted)
    std::this_thread::yield();
  ArtifactStore::Outcome How = ArtifactStore::Outcome::MemoryHit;
  std::shared_ptr<const Blob> Waited = Store.get<Blob>(
      blobKey("flaky"), Codec,
      [&] {
        Attempts++;
        return Blob{"retried"};
      },
      &How);
  Failer.join();
  EXPECT_TRUE(Threw) << "the failing compute's exception must propagate";
  EXPECT_EQ(How, ArtifactStore::Outcome::Computed);
  EXPECT_EQ(Waited->Payload, "retried");
  EXPECT_EQ(Attempts.load(), 2);

  std::shared_ptr<const Blob> Again = Store.get<Blob>(
      blobKey("flaky"), Codec, [] { return Blob{"unused"}; }, &How);
  EXPECT_EQ(How, ArtifactStore::Outcome::MemoryHit);
  EXPECT_EQ(Again.get(), Waited.get());
  EXPECT_EQ(Store.stats().Computes, 1u);
  EXPECT_EQ(Store.stats().BytesInUse, std::string("retried").size());
}

//===----------------------------------------------------------------------===//
// Disk tier: per-type round trips and corruption fallbacks
//===----------------------------------------------------------------------===//

TEST(StoreCodecTest, MatrixBodyRoundTripsBitExactly) {
  TransitionMatrix P(3);
  // Values with no short decimal representation: only a bit-pattern
  // round trip reproduces them.
  double V = 1.0 / 3.0;
  for (size_t I = 0; I < 3; ++I)
    for (size_t J = 0; J < 3; ++J)
      P.at(I, J) = V = V * 0.7 + 0.01 * double(I + J);
  std::string Body = store::encodeMatrixBody(store::AliasMagic, P);
  std::optional<TransitionMatrix> Back =
      store::decodeMatrixBody(store::AliasMagic, 3, Body);
  ASSERT_TRUE(Back);
  for (size_t I = 0; I < 3; ++I)
    for (size_t J = 0; J < 3; ++J)
      EXPECT_EQ(P.at(I, J), Back->at(I, J)); // exact, not NEAR
  // Wrong magic and stale dimension are both rejected.
  EXPECT_FALSE(store::decodeMatrixBody(store::MatrixMagic, 3, Body));
  EXPECT_FALSE(store::decodeMatrixBody(store::AliasMagic, 4, Body));
  EXPECT_FALSE(store::decodeMatrixBody(store::AliasMagic, 3, Body + "junk"));
}

TEST(StoreCodecTest, FidelityBodyRoundTripsBitExactly) {
  Hamiltonian H = testHamiltonian();
  FidelityEvaluator E(H, 0.37, 5, 11);
  std::string Body = store::encodeFidelityBody(E);
  std::optional<FidelityEvaluator> Back =
      store::decodeFidelityBody(H.numQubits(), 5, Body);
  ASSERT_TRUE(Back);
  ASSERT_EQ(Back->numColumns(), E.numColumns());
  EXPECT_EQ(Back->columns(), E.columns());
  for (size_t C = 0; C < E.numColumns(); ++C) {
    ASSERT_EQ(Back->targets()[C].size(), E.targets()[C].size());
    for (size_t I = 0; I < E.targets()[C].size(); ++I) {
      EXPECT_EQ(E.targets()[C][I].real(), Back->targets()[C][I].real());
      EXPECT_EQ(E.targets()[C][I].imag(), Back->targets()[C][I].imag());
    }
  }
  // Stale shapes are rejected.
  EXPECT_FALSE(store::decodeFidelityBody(H.numQubits(), 4, Body));
  EXPECT_FALSE(store::decodeFidelityBody(H.numQubits() + 1, 5, Body));
}

TEST(StoreServiceTest, PreviousFidelityFormatIsRecomputedNotServed) {
  std::string Dir = freshDir("store_fid_v1");
  ServiceOptions Options;
  Options.CacheDir = Dir;
  TaskSpec Spec = testSpec();

  std::optional<TaskResult> Clean;
  {
    SimulationService Service(Options);
    Clean = Service.run(Spec);
    ASSERT_TRUE(Clean);
  }
  std::filesystem::path Fid = onlyFile(Dir, ".fid");
  const std::string Healthy = readAll(Fid);
  std::string Body;
  ASSERT_TRUE(serial::splitChecksummed(Healthy, Body));
  const std::string Magic = store::FidelityMagic;
  ASSERT_EQ(Body.compare(0, Magic.size(), Magic), 0);

  // What an older build left under the same key: an intact checksum and
  // payload layout, but targets from the previous propagator.
  const std::string Old = "marqsim-fid-v1" + Body.substr(Magic.size());
  EXPECT_FALSE(store::decodeFidelityBody(testHamiltonian().numQubits(),
                                         Spec.Evaluate.FidelityColumns, Old));
  std::ofstream(Fid) << serial::withChecksum(Old);
  {
    SimulationService Service(Options);
    std::optional<TaskResult> R = Service.run(Spec);
    ASSERT_TRUE(R);
    EXPECT_EQ(Service.stats().EvaluatorMisses, 1u);
    ASSERT_EQ(R->ShotFidelities.size(), Clean->ShotFidelities.size());
    for (size_t I = 0; I < R->ShotFidelities.size(); ++I)
      EXPECT_EQ(R->ShotFidelities[I], Clean->ShotFidelities[I]);
  }
  EXPECT_EQ(readAll(Fid), Healthy) << "the recompute heals the file";
}

TEST(StoreServiceTest, AllArtifactTypesPersistAndReplayBitIdentically) {
  std::string Dir = freshDir("store_all_types");
  ServiceOptions Options;
  Options.CacheDir = Dir;
  TaskSpec Spec = testSpec();

  std::optional<TaskResult> Cold;
  {
    SimulationService Service(Options);
    Cold = Service.run(Spec);
    ASSERT_TRUE(Cold);
    EXPECT_EQ(Service.stats().GCSolveMisses, 1u);
    EXPECT_EQ(Service.stats().EvaluatorMisses, 1u);
  }
  // One file per artifact type landed on disk.
  onlyFile(Dir, ".mat");
  onlyFile(Dir, ".alias");
  onlyFile(Dir, ".fid");

  // A fresh service replays the run entirely from disk: no solve, no
  // combine, no column evolution — and every number is bit-identical.
  SimulationService Warm(Options);
  std::optional<TaskResult> R = Warm.run(Spec);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Batch.batchHash(), Cold->Batch.batchHash());
  ASSERT_EQ(R->ShotFidelities.size(), Cold->ShotFidelities.size());
  for (size_t I = 0; I < R->ShotFidelities.size(); ++I)
    EXPECT_EQ(R->ShotFidelities[I], Cold->ShotFidelities[I])
        << "fidelity of shot " << I;
  EXPECT_EQ(R->Fidelity.Mean, Cold->Fidelity.Mean);
  EXPECT_EQ(R->Fidelity.Std, Cold->Fidelity.Std);
  CacheStats S = Warm.stats();
  EXPECT_EQ(S.GCSolveMisses, 0u);
  EXPECT_EQ(S.EvaluatorMisses, 0u);
  EXPECT_EQ(S.DiskLoads, 2u) << "alias bundle + fidelity columns";
  EXPECT_EQ(Warm.storeStats().DiskHits, 2u);
}

TEST(StoreServiceTest, CorruptionFallsBackToRecomputeForEveryType) {
  std::string Dir = freshDir("store_corrupt_types");
  ServiceOptions Options;
  Options.CacheDir = Dir;
  TaskSpec Spec = testSpec();

  std::optional<TaskResult> Clean;
  {
    SimulationService Service(Options);
    Clean = Service.run(Spec);
    ASSERT_TRUE(Clean);
  }
  std::filesystem::path Mat = onlyFile(Dir, ".mat");
  std::filesystem::path Alias = onlyFile(Dir, ".alias");
  std::filesystem::path Fid = onlyFile(Dir, ".fid");
  const std::string HealthyMat = readAll(Mat);
  const std::string HealthyAlias = readAll(Alias);
  const std::string HealthyFid = readAll(Fid);

  auto RunAndExpectClean = [&](SimulationService &Service) {
    std::optional<TaskResult> R = Service.run(Spec);
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Batch.batchHash(), Clean->Batch.batchHash());
    for (size_t I = 0; I < R->ShotFidelities.size(); ++I)
      EXPECT_EQ(R->ShotFidelities[I], Clean->ShotFidelities[I]);
  };

  // Fidelity columns flipped: the evaluator rebuilds (the graph side
  // still disk-hits) and the file heals byte-identically.
  flipOneChar(Fid);
  {
    SimulationService Service(Options);
    RunAndExpectClean(Service);
    EXPECT_EQ(Service.stats().EvaluatorMisses, 1u);
    EXPECT_EQ(Service.stats().GCSolveMisses, 0u);
  }
  EXPECT_EQ(readAll(Fid), HealthyFid);

  // Alias bundle flipped: the bundle recomputes, but the component tier
  // below it still serves the solve from the intact .mat file.
  flipOneChar(Alias);
  {
    SimulationService Service(Options);
    RunAndExpectClean(Service);
    CacheStats S = Service.stats();
    EXPECT_EQ(S.GraphMisses, 1u);
    EXPECT_EQ(S.GCSolveMisses, 0u) << "component tier must cover the solve";
    EXPECT_EQ(S.GCSolveHits, 1u);
  }
  EXPECT_EQ(readAll(Alias), HealthyAlias);

  // Component flipped while the bundle is intact: the bundle tier masks
  // it (that is the point of persisting the combined matrix) — no solve.
  flipOneChar(Mat);
  {
    SimulationService Service(Options);
    RunAndExpectClean(Service);
    EXPECT_EQ(Service.stats().GCSolveMisses, 0u);
  }

  // Both matrix tiers damaged: full re-solve, both files heal.
  flipOneChar(Alias); // Mat is still corrupt from above
  {
    SimulationService Service(Options);
    RunAndExpectClean(Service);
    EXPECT_EQ(Service.stats().GCSolveMisses, 1u);
  }
  EXPECT_EQ(readAll(Mat), HealthyMat);
  EXPECT_EQ(readAll(Alias), HealthyAlias);
}

//===----------------------------------------------------------------------===//
// Capped service: evictions never change results
//===----------------------------------------------------------------------===//

TEST(StoreServiceTest, CappedStoreIsBitIdenticalToUnlimited) {
  // A sweep over several mixes under a budget small enough that every
  // artifact evicts the previous one. The batches must match the
  // unbounded service bit for bit; only the recompute counters differ.
  const ChannelMix Mixes[] = {{1.0, 0.0, 0.0},
                              {0.4, 0.6, 0.0},
                              {0.2, 0.8, 0.0},
                              {0.4, 0.3, 0.3}};
  SimulationService Unlimited;
  ServiceOptions Capped;
  Capped.CacheLimitBytes = 1; // every insertion evicts the rest
  SimulationService Tiny(Capped);

  for (const ChannelMix &Mix : Mixes) {
    TaskSpec Spec = testSpec();
    Spec.Mix = Mix;
    std::optional<TaskResult> A = Unlimited.run(Spec);
    std::optional<TaskResult> B = Tiny.run(Spec);
    ASSERT_TRUE(A && B);
    EXPECT_EQ(A->Batch.batchHash(), B->Batch.batchHash());
    ASSERT_EQ(A->ShotFidelities.size(), B->ShotFidelities.size());
    for (size_t I = 0; I < A->ShotFidelities.size(); ++I)
      EXPECT_EQ(A->ShotFidelities[I], B->ShotFidelities[I]);
  }
  EXPECT_EQ(Unlimited.storeStats().Evictions, 0u);
  EXPECT_GT(Tiny.storeStats().Evictions, 0u);
  // The capped store recomputed what it evicted — more solves, same bits.
  EXPECT_GT(Tiny.stats().matrixMisses(), Unlimited.stats().matrixMisses());
}

TEST(StoreServiceTest, CappedStoreStillSolvesOnceWithDiskTier) {
  // The one-solve-per-Hamiltonian contract survives a tiny memory budget
  // as long as the disk tier backs it: evicted artifacts reload, they do
  // not re-solve, and the batches match an unbounded service bit for bit.
  std::string Dir = freshDir("store_capped_disk");
  ServiceOptions Options;
  Options.CacheDir = Dir;
  Options.CacheLimitBytes = 1;
  SimulationService Service(Options);
  SimulationService Unlimited;
  const ChannelMix Mixes[] = {{0.4, 0.6, 0.0},
                              {0.2, 0.8, 0.0},
                              {0.6, 0.4, 0.0}};
  for (const ChannelMix &Mix : Mixes)
    for (double Eps : {0.1, 0.05}) {
      TaskSpec Spec = testSpec();
      Spec.Mix = Mix;
      Spec.Epsilon = Eps;
      std::optional<TaskResult> A = Service.run(Spec);
      std::optional<TaskResult> B = Unlimited.run(Spec);
      ASSERT_TRUE(A && B);
      EXPECT_EQ(A->Batch.batchHash(), B->Batch.batchHash());
      EXPECT_EQ(A->ShotFidelities, B->ShotFidelities);
    }
  EXPECT_EQ(Service.stats().GCSolveMisses, 1u)
      << "evictions must reload from disk, not re-solve";
  EXPECT_GT(Service.storeStats().Evictions, 0u);
  EXPECT_GT(Service.storeStats().DiskHits, 0u);
}

//===----------------------------------------------------------------------===//
// Cache-directory validation
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, ValidateCacheDirRejectsBadPaths) {
  std::string Error;
  EXPECT_TRUE(ArtifactStore::validateCacheDir("", &Error)) << "empty = off";

  // A fresh nested path is created on demand.
  std::string Fresh = freshDir("store_validate") + "/nested/cache";
  EXPECT_TRUE(ArtifactStore::validateCacheDir(Fresh, &Error)) << Error;
  EXPECT_TRUE(std::filesystem::is_directory(Fresh));

  // A regular file where the directory should be.
  std::string FilePath = testing::TempDir() + "store_validate_file";
  std::ofstream(FilePath) << "not a directory";
  EXPECT_FALSE(ArtifactStore::validateCacheDir(FilePath, &Error));
  EXPECT_NE(Error.find("not a directory"), std::string::npos) << Error;

  // A path whose parent is that file can never be created.
  EXPECT_FALSE(
      ArtifactStore::validateCacheDir(FilePath + "/below", &Error));
  EXPECT_NE(Error.find("cannot create"), std::string::npos) << Error;
}
