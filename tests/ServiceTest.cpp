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
//     any knob change misses; epsilon, which only sets the sampling
//     budget, hits every artifact,
//   * concurrent runs never duplicate an MCFP solve and see the same
//     batches,
//   * the on-disk component store round-trips bit-exactly across service
//     instances, and an alias body the sampler refuses is never admitted:
//     rejected at import, recomputed and healed on disk,
//   * in-worker fidelity equals the caller-thread evaluator loop and is
//     bit-identical for every job count,
//   * a fig14-style ratio sweep performs exactly one gate-cancellation
//     solve per (Hamiltonian, MCFPOptions).
//
//===----------------------------------------------------------------------===//

#include "core/TransitionBuilders.h"
#include "hamgen/Registry.h"
#include "markov/Sampler.h"
#include "service/SimulationService.h"
#include "shard/ShardCoordinator.h"
#include "store/ArtifactKey.h"
#include "store/Codecs.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
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

/// Moves 1e-9 of some row's mass from a zero entry to a positive one: the
/// matrix still passes Theorem 4.1 validation (which tolerates entries
/// down to -1e-6), but the sampler takes no negative weight.
bool moveMassOntoAZero(TransitionMatrix &P) {
  const size_t N = P.size();
  for (size_t I = 0; I < N; ++I)
    for (size_t Zero = 0; Zero < N; ++Zero)
      if (P.at(I, Zero) == 0.0)
        for (size_t J = 0; J < N; ++J)
          if (P.at(I, J) > 0.0) {
            P.at(I, Zero) = -1e-9;
            P.at(I, J) += 1e-9;
            return true;
          }
  return false;
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
  std::optional<TaskResult> Cold = Service.run(Base);
  ASSERT_TRUE(Cold);
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

  // Different epsilon: only the sampling budget changes, so the graph
  // bundle hits and neither matrix nor the evaluator is rebuilt. Going
  // back to the first epsilon replays its batch exactly.
  TaskSpec Eps = Base;
  Eps.Epsilon = Base.Epsilon * 2;
  ASSERT_TRUE(Service.run(Eps));
  CacheStats AfterEps = Service.stats();
  EXPECT_EQ(AfterEps.GraphHits, Same.GraphHits + 1);
  EXPECT_EQ(AfterEps.GraphMisses, First.GraphMisses);
  EXPECT_EQ(AfterEps.matrixMisses(), First.matrixMisses());
  EXPECT_EQ(AfterEps.EvaluatorMisses, First.EvaluatorMisses);
  std::optional<TaskResult> Replay = Service.run(Base);
  ASSERT_TRUE(Replay);
  EXPECT_EQ(Replay->Batch.batchHash(), Cold->Batch.batchHash());

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
  // Four threads run the same two-epsilon sweep on one service.
  SimulationService Service;
  const double Sweep[] = {0.05, 0.1};
  std::vector<std::vector<uint64_t>> Hashes(4);
  std::vector<std::thread> Threads;
  for (std::vector<uint64_t> &Mine : Hashes)
    Threads.emplace_back([&Service, &Sweep, &Mine] {
      for (double Eps : Sweep) {
        TaskSpec Spec = testSpec(testHamiltonian());
        Spec.Epsilon = Eps;
        std::optional<TaskResult> R = Service.run(Spec);
        if (!R)
          return;
        Mine.push_back(R->Batch.batchHash());
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::vector<uint64_t> &Mine : Hashes) {
    ASSERT_EQ(Mine.size(), 2u);
    EXPECT_EQ(Mine, Hashes[0]);
  }
  // One thread built the bundle (solving the MCFP inside), the others
  // blocked on the in-flight entry and reused it: exactly one solve and
  // one graph build, never two.
  CacheStats S = Service.stats();
  EXPECT_EQ(S.GCSolveMisses, 1u);
  EXPECT_EQ(S.GraphMisses, 1u);
  EXPECT_EQ(S.GraphHits, 7u);
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

TEST(ServiceCacheTest, CombinedMatrixKeepsTheBitsOfTheBuildersCombination) {
  // The service folds Pqd in from pi and builds one CNOT table for Pgc
  // and Prp; its matrix must keep every bit of the dense combination of
  // the public builders, parts in the order qDrift, gc, rp. So must
  // makeConfigMatrix (gc-rp) and combineWithQDrift (gc).
  const Hamiltonian Raw = makeBenchmark(*findBenchmark("OH-"));
  const Hamiltonian H = SimulationService::prepare(Raw);
  struct Case {
    const char *Preset;
    unsigned Jobs;
  };
  for (const Case C : {Case{"gc-rp", 1}, Case{"gc-rp", 3}, Case{"gc", 1}}) {
    SCOPED_TRACE(std::string(C.Preset) + " at Jobs " + std::to_string(C.Jobs));
    TaskSpec Spec = testSpec(Raw);
    Spec.Mix = *ChannelMix::preset(C.Preset);
    Spec.Jobs = C.Jobs;
    SimulationService Service;
    std::shared_ptr<const HTTGraph> G = Service.graphFor(Spec);
    ASSERT_TRUE(G);

    const ChannelMix &W = Spec.Mix;
    TransitionMatrix Pqd = buildQDrift(H);
    TransitionMatrix Pgc = buildGateCancellation(H, Spec.Flow);
    TransitionMatrix Prp;
    std::vector<const TransitionMatrix *> Parts = {&Pqd, &Pgc};
    std::vector<double> Weights = {W.WQd, W.WGc};
    if (W.WRp > 0.0) {
      RNG Rng(Spec.PerturbSeed);
      Prp = buildRandomPerturbation(H, Spec.PerturbRounds, Rng, Spec.Flow,
                                    C.Jobs);
      Parts.push_back(&Prp);
      Weights.push_back(W.WRp);
    }
    const TransitionMatrix Dense = TransitionMatrix::combine(Parts, Weights);
    auto SameBits = [&](const std::vector<double> &Got) {
      ASSERT_EQ(Got.size(), Dense.data().size());
      EXPECT_EQ(std::memcmp(Got.data(), Dense.data().data(),
                            Got.size() * sizeof(double)),
                0);
    };
    SameBits(G->transitionMatrix().data());
    if (W.WRp > 0.0)
      SameBits(makeConfigMatrix(H, W.WQd, W.WGc, W.WRp, Spec.PerturbRounds,
                                Spec.PerturbSeed, Spec.Flow)
                   .data());
    else
      SameBits(combineWithQDrift(H, Pgc, W.WQd).data());
  }
}

TEST(ServiceCacheTest, BundleChargeIsMatrixPlusSamplerTables) {
  // The LRU charges a bundle what it holds: the dense combined matrix
  // (8 bytes/entry) plus the sampler's shared and sparse row tables.
  const Hamiltonian H = testHamiltonian();
  const size_t N = H.numTerms();
  const size_t MatrixBytes = N * N * sizeof(double);
  const std::vector<double> Pi = H.stationaryDistribution();

  // Pure qDrift: no component, and the sampler has no row cells.
  {
    SimulationService Service;
    TaskSpec Spec = testSpec(H);
    Spec.Mix = *ChannelMix::preset("baseline");
    ASSERT_TRUE(Service.run(Spec));
    MarkovChainSampler Chain(TransitionMatrix::fromStationary(Pi), Pi);
    EXPECT_EQ(Chain.numRowCells(), 0u);
    EXPECT_EQ(Service.storeStats().BytesInUse, MatrixBytes + Chain.bytes());
  }

  // GC mix: the Pgc component plus the bundle over the combined matrix,
  // whose exact bits the exported .alias body carries.
  SimulationService Service;
  TaskSpec Spec = testSpec(H);
  ASSERT_TRUE(Service.run(Spec));
  std::optional<std::vector<TaskArtifact>> Artifacts =
      Service.exportArtifacts(Spec);
  ASSERT_TRUE(Artifacts);
  ASSERT_EQ(Artifacts->size(), 1u);
  ASSERT_EQ(Artifacts->front().Key.Type, ArtifactType::AliasBundle);
  std::optional<TransitionMatrix> P = store::decodeMatrixBody(
      store::AliasMagic, N, Artifacts->front().Body);
  ASSERT_TRUE(P);
  MarkovChainSampler Chain(*P, Pi);
  EXPECT_LT(Chain.numRowCells(), N * N);
  EXPECT_EQ(Service.storeStats().BytesInUse,
            MatrixBytes + MatrixBytes + Chain.bytes());
}

TEST(ServiceCacheTest, ImportRejectsABundleTheSamplerRefuses) {
  // Theorem 4.1 validation tolerates entries down to -1e-6, but the
  // sampler takes no negative weight: such a body must be refused at
  // import, not thrown from the decode or cached.
  TaskSpec Spec = testSpec(testHamiltonian());
  Spec.Mix = ChannelMix{0.0, 1.0, 0.0};
  SimulationService Source;
  std::string Error;
  ASSERT_TRUE(Source.run(Spec, &Error)) << Error;
  const ArtifactKey Key = store::aliasBundleKey(
      testHamiltonian().fingerprint(), 0.0, 1.0, 0.0, Spec.Flow,
      Spec.PerturbRounds, Spec.PerturbSeed, Spec.UseCDF);
  std::optional<std::vector<TaskArtifact>> Artifacts =
      Source.exportArtifacts(Spec, &Error);
  ASSERT_TRUE(Artifacts) << Error;
  ASSERT_EQ(Artifacts->size(), 1u);
  ASSERT_EQ(Artifacts->front().Key.Id, Key.Id);
  const size_t N = testHamiltonian().numTerms();
  std::optional<TransitionMatrix> P = store::decodeMatrixBody(
      store::AliasMagic, N, Artifacts->front().Body);
  ASSERT_TRUE(P);
  ASSERT_TRUE(moveMassOntoAZero(*P));
  ASSERT_TRUE(HTTGraph(testHamiltonian().merged().splitLargeTerms(), *P)
                  .isValidForCompilation());

  SimulationService Target;
  EXPECT_FALSE(Target.importArtifact(
      Spec, Key, store::encodeMatrixBody(store::AliasMagic, *P), &Error));
  EXPECT_TRUE(Target.run(Spec, &Error)) << Error;
  EXPECT_EQ(Target.stats().GraphMisses, 1u);
}

TEST(ServiceCacheTest, DiskBundleTheSamplerRefusesIsRecomputedAndHealed) {
  // A checksummed .alias file can hold a matrix that passes Theorem 4.1
  // but that the sampler refuses. The decode must reject it like any
  // stale body: the run recomputes the bundle and overwrites the file,
  // instead of failing every run of the spec.
  TaskSpec Spec = testSpec(testHamiltonian());
  Spec.Mix = ChannelMix{0.0, 1.0, 0.0};
  std::string Error;
  std::optional<std::vector<TaskArtifact>> Good =
      SimulationService().exportArtifacts(Spec, &Error);
  ASSERT_TRUE(Good) << Error;
  ASSERT_EQ(Good->size(), 1u);
  const TaskArtifact &Bundle = Good->front();
  const size_t N = testHamiltonian().numTerms();
  std::optional<TransitionMatrix> P =
      store::decodeMatrixBody(store::AliasMagic, N, Bundle.Body);
  ASSERT_TRUE(P);
  ASSERT_TRUE(moveMassOntoAZero(*P));

  const std::string Dir = testing::TempDir() + "service_heal_refused_alias";
  std::filesystem::remove_all(Dir);
  {
    // Plant the refused body through the store itself, so its framing
    // and checksum are exactly what the disk tier writes.
    ArtifactStore Store(ArtifactStore::Options{Dir, 0});
    ArtifactCodec<TransitionMatrix> Plain;
    Plain.Decode = [N](const std::string &Body) {
      return store::decodeMatrixBody(store::AliasMagic, N, Body);
    };
    ASSERT_EQ(Store.put(Bundle.Key, Plain,
                        store::encodeMatrixBody(store::AliasMagic, *P)),
              ArtifactStore::PutOutcome::Inserted);
  }
  const std::filesystem::path File =
      std::filesystem::path(Dir) / Bundle.Key.fileName();
  auto BodyOnDisk = [&] {
    std::ifstream In(File);
    std::ostringstream Text;
    Text << In.rdbuf();
    std::string Body;
    EXPECT_TRUE(serial::splitChecksummed(Text.str(), Body));
    return Body;
  };
  ASSERT_NE(BodyOnDisk(), Bundle.Body);

  ServiceOptions Opts;
  Opts.CacheDir = Dir;
  SimulationService Service(Opts);
  ASSERT_TRUE(Service.run(Spec, &Error)) << Error;
  EXPECT_EQ(Service.stats().GraphMisses, 1u);
  EXPECT_EQ(Service.stats().GraphHits, 0u);
  EXPECT_EQ(BodyOnDisk(), Bundle.Body) << "the refused file was not healed";
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
  // The within-shot knob must survive the shard path end to end: a
  // sharded run under any EvalJobs merges to the exact bytes of the
  // single-process run.
  TaskSpec Spec = testSpec(testHamiltonian());
  Spec.Shots = 5;
  Spec.Evaluate.FidelityColumns = 12;
  Spec.EvalJobs = 3;

  SimulationService Single;
  TaskSpec SerialSpec = Spec;
  SerialSpec.EvalJobs = 1;
  std::optional<TaskResult> Unsharded = Single.run(SerialSpec);
  ASSERT_TRUE(Unsharded);

  ShardOptions Options;
  Options.ShardCount = 2;
  Options.WorkDir = testing::TempDir() + "mq-evaljobs-shards";
  std::filesystem::remove_all(Options.WorkDir);
  ShardCoordinator Coordinator(Options);
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
  // daemon would otherwise terminate on a client's prob_scale).
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
