//===- tests/FleetTest.cpp - Cross-host execution fabric contracts ------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The contracts of the cross-host fabric:
//   * a fleet run over 1, 2 or 4 loopback daemons is bit-identical to the
//     single-process run, with exactly one MCFP solve fleet-wide — the
//     workers are warmed over the wire through content-addressed
//     artifact frames, not a shared filesystem,
//   * the coordinator keeps a range in flight on every worker at once
//     (a rendezvous across four relays, no wall-clock threshold),
//   * a worker that dies mid-range is dropped and its in-flight range
//     re-dispatched to the survivors without burning the retry budget,
//   * a live worker returning a corrupt or mismatched manifest is
//     attempt-charged and the range re-run; a fleet of only lying
//     workers aborts after the bounded attempt budget,
//   * workers are only pushed to: a key that is not one of the spec's
//     transportable artifacts (alias bundle, fidelity columns) and a
//     corrupt artifact-put body are rejected, and an oversized frame on
//     the artifact path is cut off cleanly,
//   * artifact-get is a presence probe and carries no body: found in the
//     memory tier or in a checksum-valid disk file, not found for a
//     corrupt file or an unknown key (never a hang or a compute),
//   * a cold worker's shard-submit solves inside its run, so the solve
//     shows in the returned manifest's cache stats,
//   * DaemonClient::connectTo's bounded retry absorbs daemons still
//     binding their port and fails fast when nothing ever listens.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/Daemon.h"
#include "shard/ShardCoordinator.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

using namespace marqsim;
using server::Frame;

namespace {

Hamiltonian testHamiltonian() {
  return Hamiltonian::parse({{1.0, "IIZY"},
                             {0.8, "XXII"},
                             {0.6, "ZXZY"},
                             {0.4, "IZZX"},
                             {0.2, "XYYZ"}});
}

/// A sampling spec with per-shot fidelity, inline Hamiltonian (fleet
/// specs travel as JSON, so no file source is needed).
TaskSpec testSpec(size_t Shots = 6) {
  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(testHamiltonian());
  Spec.Mix = *ChannelMix::preset("gc");
  Spec.Time = 0.5;
  Spec.Epsilon = 0.05;
  Spec.Shots = Shots;
  Spec.Seed = 31337;
  Spec.Evaluate.FidelityColumns = 3;
  return Spec;
}

std::string freshDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

void expectBitIdentical(const TaskResult &Single, const TaskResult &Merged) {
  EXPECT_EQ(Single.Fingerprint, Merged.Fingerprint);
  EXPECT_EQ(Single.Batch.batchHash(), Merged.Batch.batchHash());
  ASSERT_EQ(Single.Batch.Shots.size(), Merged.Batch.Shots.size());
  for (size_t I = 0; I < Single.Batch.Shots.size(); ++I)
    EXPECT_EQ(Single.Batch.Shots[I].SequenceHash,
              Merged.Batch.Shots[I].SequenceHash)
        << "shot " << I;
  EXPECT_EQ(Single.Batch.CNOTs.Mean, Merged.Batch.CNOTs.Mean);
  EXPECT_EQ(Single.Batch.CNOTs.Std, Merged.Batch.CNOTs.Std);
  ASSERT_EQ(Single.ShotFidelities.size(), Merged.ShotFidelities.size());
  for (size_t I = 0; I < Single.ShotFidelities.size(); ++I)
    EXPECT_EQ(Single.ShotFidelities[I], Merged.ShotFidelities[I])
        << "fidelity bits of shot " << I;
  EXPECT_EQ(Single.Fidelity.Mean, Merged.Fidelity.Mean);
  EXPECT_EQ(Single.Fidelity.Std, Merged.Fidelity.Std);
}

/// A live daemon on an ephemeral port with its serve() loop on a thread.
struct TestDaemon {
  SimulationService Service;
  server::Daemon D;
  std::thread Server;
  std::atomic<int> Exit{-1};

  explicit TestDaemon(server::DaemonOptions Opts = {},
                      ServiceOptions ServiceOpts = {})
      : Service(ServiceOpts), D(Service, Opts) {
    std::string Error;
    Started = D.start(&Error);
    EXPECT_TRUE(Started) << Error;
    if (Started)
      Server = std::thread([this] { Exit = D.serve(); });
  }
  ~TestDaemon() { stop(); }

  int stop() {
    if (Server.joinable()) {
      D.notifyShutdown();
      Server.join();
    }
    return Exit;
  }

  std::string hostPort() const {
    return "127.0.0.1:" + std::to_string(D.port());
  }

  bool Started = false;
};

/// A scripted fabric worker for fault injection: accepts connections on
/// an ephemeral port and hands every decoded frame to \p Handle, which
/// answers on the socket and returns false to hang up. The real daemon
/// never lies or dies mid-range; these scenarios need a worker that does.
struct FakeWorker {
  using Handler = std::function<bool(Socket &, const Frame &)>;

  ListenSocket L;
  int WakePipe[2] = {-1, -1};
  std::thread T;

  explicit FakeWorker(Handler Handle) {
    EXPECT_TRUE(L.listenOn("127.0.0.1", 0));
    EXPECT_EQ(pipe(WakePipe), 0);
    T = std::thread([this, Handle = std::move(Handle)] {
      for (;;) {
        bool Woke = false;
        std::optional<Socket> S = L.accept(WakePipe[0], &Woke);
        if (!S)
          return; // woken for shutdown, or listener torn down
        std::string Line;
        while (S->readLine(Line, server::MaxRequestFrameBytes) ==
               Socket::ReadStatus::Line) {
          std::optional<Frame> F = server::decodeFrame(Line);
          if (!F || !Handle(*S, *F))
            break;
        }
      }
    });
  }

  ~FakeWorker() {
    if (WakePipe[1] >= 0)
      (void)!write(WakePipe[1], "x", 1);
    if (T.joinable())
      T.join();
    if (WakePipe[0] >= 0) {
      ::close(WakePipe[0]);
      ::close(WakePipe[1]);
    }
  }

  std::string hostPort() const {
    return "127.0.0.1:" + std::to_string(L.port());
  }
};

/// Answers the coordinator's warm-up frames as if every artifact were
/// already held, so the dispatch phase is reached without any pushes.
bool claimAllArtifacts(Socket &S, const Frame &F) {
  if (F.Type != "artifact-get")
    return false;
  json::Value Body = json::Value::object()
                         .set("atype", F.Body.find("atype")->asString())
                         .set("id", F.Body.find("id")->asString())
                         .set("found", true);
  return S.sendAll(server::encodeFrame("artifact", std::move(Body)));
}

/// An honest worker: a real daemon behind a relay that passes every frame
/// through unchanged but calls \p Hold before relaying each shard range.
/// The fault-injection tests hold ranges until the faulty worker has
/// received one (holdUntil); an ungated daemon can finish the whole batch
/// before the faulty worker's thread even connects. Warm-up frames are
/// relayed too, so the daemon is warmed over the wire like any fleet
/// worker.
struct GatedWorker {
  TestDaemon Upstream;
  std::optional<Socket> Link;
  FakeWorker Front;

  explicit GatedWorker(std::function<void()> Hold)
      : Front([this, Hold = std::move(Hold)](Socket &S, const Frame &F) {
          if (F.Type == "shard-submit")
            Hold();
          if (!Link)
            Link = Socket::connectTo("127.0.0.1", Upstream.D.port());
          if (!Link || !Link->sendAll(server::encodeFrame(F.Type, F.Body)))
            return false;
          // Every request has one answer frame; a shard range's answer is
          // preceded by "accepted".
          std::string Line;
          for (;;) {
            if (Link->readLine(Line, server::MaxResponseFrameBytes) !=
                Socket::ReadStatus::Line)
              return false;
            std::optional<Frame> Reply = server::decodeFrame(Line);
            if (!Reply ||
                !S.sendAll(server::encodeFrame(Reply->Type, Reply->Body)))
              return false;
            if (Reply->Type != "accepted")
              return true;
          }
        }) {}

  std::string hostPort() const { return Front.hostPort(); }
};

/// A GatedWorker hold that waits until \p Open() turns true, at most 10 s.
std::function<void()> holdUntil(std::function<bool()> Open) {
  return [Open = std::move(Open)] {
    for (int Waited = 0; !Open() && Waited < 10000; Waited += 5)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
}

} // namespace

//===----------------------------------------------------------------------===//
// Stats serializers
//===----------------------------------------------------------------------===//

TEST(FleetStatsTest, SerializerAggregatesPerWorkerCounters) {
  FleetStats S;
  S.Used = true;
  FleetWorkerStats A;
  A.HostPort = "10.0.0.1:4000";
  A.RangesDispatched = 3;
  A.FetchMisses = 2;
  A.ArtifactBytesServed = 4096;
  FleetWorkerStats B;
  B.HostPort = "10.0.0.2:4000";
  B.RangesDispatched = 2;
  B.RangesRedispatched = 1;
  B.FetchHits = 2;
  B.Alive = false;
  S.Workers = {A, B};

  json::Value V = server::fleetStatsJson(S);
  EXPECT_EQ(V.find("workers")->asInt(), 2);
  EXPECT_EQ(V.find("dead_workers")->asInt(), 1);
  EXPECT_EQ(V.find("ranges_dispatched")->asInt(), 5);
  EXPECT_EQ(V.find("ranges_redispatched")->asInt(), 1);
  EXPECT_EQ(V.find("fetch_hits")->asInt(), 2);
  EXPECT_EQ(V.find("fetch_misses")->asInt(), 2);
  EXPECT_EQ(V.find("artifact_bytes_served")->asInt(), 4096);
  const json::Value *Per = V.find("per_worker");
  ASSERT_NE(Per, nullptr);
  ASSERT_EQ(Per->size(), 2u);
  EXPECT_EQ(Per->at(0).find("worker")->asString(), "10.0.0.1:4000");
  EXPECT_TRUE(Per->at(0).find("alive")->asBool());
  EXPECT_FALSE(Per->at(1).find("alive")->asBool());
  EXPECT_EQ(Per->at(1).find("ranges_redispatched")->asInt(), 1);
}

//===----------------------------------------------------------------------===//
// Connect retry
//===----------------------------------------------------------------------===//

TEST(ConnectRetryTest, AbsorbsLateBindingAndFailsFastOtherwise) {
  // Reserve an ephemeral port, then free it for the late-starting daemon.
  uint16_t Port = 0;
  {
    ListenSocket Probe;
    ASSERT_TRUE(Probe.listenOn("127.0.0.1", 0));
    Port = Probe.port();
  }
  const std::string HostPort = "127.0.0.1:" + std::to_string(Port);

  // Nothing listening and a two-attempt budget: fails, not hangs.
  std::string Error;
  server::ConnectOptions FailFast;
  FailFast.Attempts = 2;
  FailFast.DelayMs = 10;
  FailFast.MaxDelayMs = 20;
  EXPECT_FALSE(server::DaemonClient::connectTo(HostPort, &Error, FailFast));
  EXPECT_FALSE(Error.empty());

  // The daemon binds the port only after the client began retrying; the
  // backoff loop must ride over the gap (this is the CI smoke's port
  // wait, exercised in-process).
  std::atomic<bool> Done{false};
  std::thread Late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    server::DaemonOptions Opts;
    Opts.Port = Port;
    TestDaemon Daemon(Opts);
    EXPECT_TRUE(Daemon.Started);
    while (!Done)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  server::ConnectOptions Patient;
  Patient.Attempts = 40;
  Patient.DelayMs = 25;
  Patient.MaxDelayMs = 100;
  std::optional<server::DaemonClient> Client =
      server::DaemonClient::connectTo(HostPort, &Error, Patient);
  EXPECT_TRUE(Client) << Error;
  if (Client) {
    EXPECT_TRUE(Client->health(&Error)) << Error;
  }
  Done = true;
  Late.join();
}

//===----------------------------------------------------------------------===//
// Artifact frames
//===----------------------------------------------------------------------===//

TEST(ArtifactFabricTest, ContentAddressedFetchRoundTripsAndRejects) {
  TaskSpec Spec = testSpec(3);
  std::string Error;
  std::optional<json::Value> SpecJson = Spec.toJson(&Error);
  ASSERT_TRUE(SpecJson) << Error;

  // The coordinator side: one solve, then export the warm set.
  SimulationService Origin;
  ASSERT_TRUE(Origin.prewarm(Spec, &Error)) << Error;
  std::optional<std::vector<TaskArtifact>> Artifacts =
      Origin.exportArtifacts(Spec, &Error);
  ASSERT_TRUE(Artifacts) << Error;
  ASSERT_FALSE(Artifacts->empty());

  TestDaemon Daemon;
  ASSERT_TRUE(Daemon.Started);
  std::optional<server::DaemonClient> Client =
      server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
  ASSERT_TRUE(Client) << Error;

  for (const TaskArtifact &A : *Artifacts) {
    // Fresh daemon: probe misses, push stores, probe then hits.
    std::optional<bool> Present = Client->probeArtifact(A.Key, &Error);
    ASSERT_TRUE(Present) << Error;
    EXPECT_FALSE(*Present);
    std::optional<bool> Stored =
        Client->putArtifact(*SpecJson, A.Key, A.Body, &Error);
    ASSERT_TRUE(Stored) << Error;
    EXPECT_TRUE(*Stored);
    Present = Client->probeArtifact(A.Key, &Error);
    ASSERT_TRUE(Present) << Error;
    EXPECT_TRUE(*Present);
    // A second put is idempotent: the daemon reports it already held it.
    Stored = Client->putArtifact(*SpecJson, A.Key, A.Body, &Error);
    ASSERT_TRUE(Stored) << Error;
    EXPECT_FALSE(*Stored);
  }

  // Probing an unknown key is not an error — just "not here", never a
  // hang or a compute.
  ArtifactKey Unknown = store::fidelityColumnsKey(0xDEADBEEF, 1.0, 2, 7);
  std::optional<bool> Probe = Client->probeArtifact(Unknown, &Error);
  ASSERT_TRUE(Probe) << Error;
  EXPECT_FALSE(*Probe);

  // A key that does not belong to the spec, and a corrupt body for a key
  // that does: both rejected, neither stored.
  Error.clear();
  EXPECT_FALSE(Client->putArtifact(*SpecJson, Unknown, "junk", &Error));
  EXPECT_NE(Error.find("does not belong"), std::string::npos) << Error;
  // The spec's own Pgc component is not transportable either: the alias
  // bundle already covers its solve, so only bundle and columns travel.
  const ArtifactKey GC = store::componentKeyGC(
      SimulationService::prepare(testHamiltonian()).fingerprint(),
      Spec.Flow);
  Error.clear();
  EXPECT_FALSE(Client->putArtifact(*SpecJson, GC, "junk", &Error));
  EXPECT_NE(Error.find("does not belong"), std::string::npos) << Error;
  Error.clear();
  EXPECT_FALSE(
      Client->putArtifact(*SpecJson, Artifacts->front().Key, "junk", &Error));
  EXPECT_NE(Error.find("decode"), std::string::npos) << Error;

  // The connection survived every rejection.
  EXPECT_TRUE(Client->health(&Error)) << Error;

  // The worker daemon answered it all without performing a single solve.
  EXPECT_EQ(Daemon.Service.stats().GCSolveMisses, 0u);
}

TEST(ArtifactFabricTest, ProbesAnswerFromPresenceOnEveryTier) {
  TaskSpec Spec = testSpec(3);
  std::string Error;
  std::optional<json::Value> SpecJson = Spec.toJson(&Error);
  ASSERT_TRUE(SpecJson) << Error;
  SimulationService Origin;
  ASSERT_TRUE(Origin.prewarm(Spec, &Error)) << Error;
  std::optional<std::vector<TaskArtifact>> Artifacts =
      Origin.exportArtifacts(Spec, &Error);
  ASSERT_TRUE(Artifacts) << Error;
  ASSERT_FALSE(Artifacts->empty());

  ServiceOptions Disk;
  Disk.CacheDir = freshDir("fabric_probe_tiers");
  auto ProbeAll = [&](TestDaemon &Daemon, bool Want, const char *Tier) {
    std::optional<server::DaemonClient> Client =
        server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
    ASSERT_TRUE(Client) << Error;
    for (const TaskArtifact &A : *Artifacts) {
      std::optional<bool> Present = Client->probeArtifact(A.Key, &Error);
      ASSERT_TRUE(Present) << Error;
      EXPECT_EQ(*Present, Want) << Tier << ": " << A.Key.Id;
      EXPECT_EQ(Daemon.Service.hasArtifact(A.Key), Want)
          << Tier << ": " << A.Key.Id;
    }
  };

  {
    // Memory tier: pushed bodies are found.
    TestDaemon Daemon({}, Disk);
    ASSERT_TRUE(Daemon.Started);
    std::optional<server::DaemonClient> Client =
        server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
    ASSERT_TRUE(Client) << Error;
    for (const TaskArtifact &A : *Artifacts) {
      std::optional<bool> Stored =
          Client->putArtifact(*SpecJson, A.Key, A.Body, &Error);
      ASSERT_TRUE(Stored) << Error;
      EXPECT_TRUE(*Stored);
    }
    ProbeAll(Daemon, true, "memory tier");
  }
  {
    // Disk tier: a daemon restarted over the same cache directory holds
    // nothing in memory, and the checksummed files answer the probes
    // without being decoded.
    TestDaemon Daemon({}, Disk);
    ASSERT_TRUE(Daemon.Started);
    ProbeAll(Daemon, true, "disk tier");
    EXPECT_EQ(Daemon.Service.storeStats().DiskHits, 0u);
    EXPECT_EQ(Daemon.Service.storeStats().BytesInUse, 0u);

    // A corrupt file fails its checksum and reads as absent.
    for (const TaskArtifact &A : *Artifacts) {
      std::filesystem::path P =
          std::filesystem::path(Disk.CacheDir) / A.Key.fileName();
      std::string Text;
      {
        std::ifstream In(P);
        ASSERT_TRUE(In) << P;
        std::ostringstream Buf;
        Buf << In.rdbuf();
        Text = Buf.str();
      }
      size_t Pos = Text.find('\n') + 3;
      ASSERT_LT(Pos, Text.size());
      Text[Pos] = Text[Pos] == '0' ? '1' : '0';
      std::ofstream(P) << Text;
    }
    ProbeAll(Daemon, false, "corrupt disk tier");

    // A key nobody ever resolved is absent too.
    ArtifactKey Unknown = store::fidelityColumnsKey(0xDEADBEEF, 1.0, 2, 7);
    std::optional<server::DaemonClient> Client =
        server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
    ASSERT_TRUE(Client) << Error;
    std::optional<bool> Present = Client->probeArtifact(Unknown, &Error);
    ASSERT_TRUE(Present) << Error;
    EXPECT_FALSE(*Present);
    EXPECT_FALSE(Daemon.Service.hasArtifact(Unknown));
  }
}

TEST(ArtifactFabricTest, ColdShardSubmitReportsItsSolveInTheManifest) {
  // No artifact pushed: the worker solves inside the range's own run, so
  // the solve lands in the manifest's stats (and from there in the
  // coordinator's whole-run gc-solves line) instead of vanishing into a
  // separate pre-run resolution.
  TaskSpec Spec = testSpec(3);
  std::string Error;
  std::optional<json::Value> SpecJson = Spec.toJson(&Error);
  ASSERT_TRUE(SpecJson) << Error;
  TestDaemon Daemon;
  ASSERT_TRUE(Daemon.Started);
  std::optional<server::DaemonClient> Client =
      server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
  ASSERT_TRUE(Client) << Error;
  std::optional<std::string> Text =
      Client->runShardRange(*SpecJson, ShotRange{0, 2}, 0, nullptr, &Error);
  ASSERT_TRUE(Text) << Error;
  std::optional<ShardManifest> M = ShardManifest::parse(*Text, &Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_EQ(M->Stats.GCSolveMisses, 1u);
  EXPECT_EQ(M->Stats.GraphMisses, 1u);
  EXPECT_EQ(M->Stats.EvaluatorMisses, 1u);
  EXPECT_EQ(Daemon.Service.stats().GCSolveMisses, 1u);
}

TEST(ArtifactFabricTest, OversizedArtifactFrameIsCutOff) {
  TestDaemon Daemon;
  ASSERT_TRUE(Daemon.Started);
  std::string Error;
  std::optional<Socket> Sock =
      Socket::connectTo("127.0.0.1", Daemon.D.port(), &Error);
  ASSERT_TRUE(Sock) << Error;

  // An artifact-put whose body pushes the line past the request cap,
  // never newline-terminated. The daemon must answer "oversized" and
  // close (or just close if the send races its teardown).
  std::string Giant = "{\"v\":1,\"type\":\"artifact-put\",\"body\":\"";
  Giant.append(server::MaxRequestFrameBytes + (64u << 10), 'x');
  if (Sock->sendAll(Giant)) {
    std::string Line;
    if (Sock->readLine(Line, server::MaxResponseFrameBytes) ==
        Socket::ReadStatus::Line) {
      std::optional<Frame> F = server::decodeFrame(Line);
      ASSERT_TRUE(F);
      EXPECT_EQ(F->Type, "error");
      EXPECT_EQ(F->Body.find("code")->asString(), "oversized");
    }
  }
  Sock->close();

  // The daemon keeps serving other clients.
  std::optional<server::DaemonClient> Client =
      server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
  ASSERT_TRUE(Client) << Error;
  EXPECT_TRUE(Client->health(&Error)) << Error;
}

//===----------------------------------------------------------------------===//
// Fleet dispatch
//===----------------------------------------------------------------------===//

TEST(FleetTest, WorkerCounts124BitIdenticalWithOneSolveFleetWide) {
  TaskSpec Spec = testSpec(6);
  SimulationService Reference;
  std::optional<TaskResult> Single = Reference.run(Spec);
  ASSERT_TRUE(Single);

  for (size_t Workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(Workers) + " worker(s)");
    std::vector<std::unique_ptr<TestDaemon>> Fleet;
    ShardOptions Options;
    for (size_t I = 0; I < Workers; ++I) {
      Fleet.push_back(std::make_unique<TestDaemon>());
      ASSERT_TRUE(Fleet.back()->Started);
      Options.Workers.push_back(Fleet.back()->hostPort());
    }
    // Three ranges: more than one worker has, fewer than four have.
    Options.ShardCount = 3;
    Options.WorkDir = freshDir("fleet_workers_" + std::to_string(Workers));
    ShardCoordinator Coordinator(Options);
    std::string Error;
    ShardReport Report;
    std::optional<TaskResult> Merged =
        Coordinator.run(Spec, &Error, &Report);
    ASSERT_TRUE(Merged) << Error;
    expectBitIdentical(*Single, *Merged);

    // One MCFP solve fleet-wide: the coordinator's prewarm performed it,
    // every worker was warmed over the wire and solved nothing.
    EXPECT_EQ(Report.LocalStats.GCSolveMisses, 1u);
    EXPECT_EQ(Report.WorkerStats.GCSolveMisses, 0u);
    for (const std::unique_ptr<TestDaemon> &W : Fleet)
      EXPECT_EQ(W->Service.stats().GCSolveMisses, 0u);

    // Fleet accounting: every worker alive, every range dispatched
    // exactly once, and the warm phase pushed bytes to every fresh
    // daemon, one that ran no range included.
    ASSERT_TRUE(Report.Fleet.Used);
    ASSERT_EQ(Report.Fleet.Workers.size(), Workers);
    size_t Dispatched = 0;
    for (const FleetWorkerStats &WS : Report.Fleet.Workers) {
      EXPECT_TRUE(WS.Alive) << WS.HostPort;
      EXPECT_EQ(WS.RangesRedispatched, 0u);
      EXPECT_EQ(WS.FetchHits, 0u);
      EXPECT_GE(WS.FetchMisses, 1u);
      EXPECT_GT(WS.ArtifactBytesServed, 0u);
      Dispatched += WS.RangesDispatched;
    }
    EXPECT_EQ(Dispatched, 3u);
    EXPECT_EQ(Report.Retries, 0u);

    // The daemon-side fabric counters surfaced in the stats frame. Every
    // worker was warmed; which one ran how many ranges is a race (one
    // fast daemon may drain all three), so submits are checked summed.
    int64_t Submits = 0;
    for (const std::unique_ptr<TestDaemon> &W : Fleet) {
      std::optional<server::DaemonClient> Client =
          server::DaemonClient::connectTo(W->hostPort(), &Error);
      ASSERT_TRUE(Client) << Error;
      std::optional<json::Value> Stats = Client->serverStats(&Error);
      ASSERT_TRUE(Stats) << Error;
      const json::Value *Fabric = Stats->find("fabric");
      ASSERT_NE(Fabric, nullptr);
      Submits += Fabric->find("shard_submits")->asInt();
      EXPECT_EQ(Fabric->find("shard_results")->asInt(),
                Fabric->find("shard_submits")->asInt());
      EXPECT_GE(Fabric->find("artifact_puts")->asInt(), 1);
      EXPECT_GE(Fabric->find("artifact_misses")->asInt(), 1);
      EXPECT_GT(Fabric->find("artifact_bytes_in")->asInt(), 0);
    }
    EXPECT_EQ(Submits, 3);
  }
}

TEST(FleetTest, EveryWorkerRunsARangeAtTheSameTime) {
  // Four relayed workers, eight ranges. Each relay holds its first range
  // until all four relays hold one, or 10 s pass. A coordinator that ran
  // its workers one after another would leave the first relay waiting
  // out the 10 s alone and the first worker draining every range.
  constexpr size_t Workers = 4;
  TaskSpec Spec = testSpec(8);
  SimulationService Reference;
  std::optional<TaskResult> Single = Reference.run(Spec);
  ASSERT_TRUE(Single);

  std::mutex M;
  std::condition_variable CV;
  size_t Arrived = 0;
  std::vector<char> Held(Workers, 0), Met(Workers, 0);
  std::vector<std::unique_ptr<GatedWorker>> Relays;
  ShardOptions Options;
  for (size_t I = 0; I < Workers; ++I) {
    Relays.push_back(std::make_unique<GatedWorker>([&, I] {
      std::unique_lock<std::mutex> Lock(M);
      if (Held[I])
        return; // only the first range waits
      Held[I] = 1;
      ++Arrived;
      CV.notify_all();
      Met[I] = CV.wait_for(Lock, std::chrono::seconds(10),
                           [&] { return Arrived == Workers; });
    }));
    ASSERT_TRUE(Relays.back()->Upstream.Started);
    Options.Workers.push_back(Relays.back()->hostPort());
  }
  Options.ShardCount = 8;
  Options.WorkDir = freshDir("fleet_rendezvous");
  std::string Error;
  ShardReport Report;
  std::optional<TaskResult> Merged =
      ShardCoordinator(Options).run(Spec, &Error, &Report);
  ASSERT_TRUE(Merged) << Error;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (size_t I = 0; I < Workers; ++I)
      if (!Held[I])
        ADD_FAILURE() << "worker " << I << " never received a range";
      else
        EXPECT_TRUE(Met[I]) << "worker " << I
                            << " was released by the 10 s timeout, not by "
                               "the other workers' ranges";
  }
  expectBitIdentical(*Single, *Merged);
  EXPECT_EQ(Report.Retries, 0u);
}

TEST(FleetTest, SecondRunOverWarmWorkersFetchesNothing) {
  TaskSpec Spec = testSpec(4);
  TestDaemon W1, W2;
  ASSERT_TRUE(W1.Started && W2.Started);

  ShardOptions Options;
  Options.ShardCount = 2;
  Options.Workers = {W1.hostPort(), W2.hostPort()};

  Options.WorkDir = freshDir("fleet_warm_cold");
  ShardReport Cold;
  std::optional<TaskResult> First =
      ShardCoordinator(Options).run(Spec, nullptr, &Cold);
  ASSERT_TRUE(First);

  // A fresh work directory forces real re-dispatch, but the workers'
  // stores are warm now: every probe hits and no bytes move.
  Options.WorkDir = freshDir("fleet_warm_warm");
  ShardReport Warm;
  std::optional<TaskResult> Second =
      ShardCoordinator(Options).run(Spec, nullptr, &Warm);
  ASSERT_TRUE(Second);
  EXPECT_EQ(First->Batch.batchHash(), Second->Batch.batchHash());
  for (const FleetWorkerStats &WS : Warm.Fleet.Workers) {
    EXPECT_GE(WS.FetchHits, 1u) << WS.HostPort;
    EXPECT_EQ(WS.FetchMisses, 0u) << WS.HostPort;
    EXPECT_EQ(WS.ArtifactBytesServed, 0u) << WS.HostPort;
  }
  EXPECT_EQ(W1.Service.stats().GCSolveMisses, 0u);
  EXPECT_EQ(W2.Service.stats().GCSolveMisses, 0u);
}

TEST(FleetTest, DeadWorkerRangeIsRedispatchedToSurvivor) {
  TaskSpec Spec = testSpec(6);
  SimulationService Reference;
  std::optional<TaskResult> Single = Reference.run(Spec);
  ASSERT_TRUE(Single);

  // Claims every artifact, accepts its first range, then drops the
  // connection with the range in flight — a worker killed mid-range.
  std::atomic<int> Submits{0};
  GatedWorker Survivor(holdUntil([&Submits] { return Submits > 0; }));
  ASSERT_TRUE(Survivor.Upstream.Started);
  FakeWorker Doomed([&Submits](Socket &S, const Frame &F) {
    if (F.Type == "shard-submit") {
      ++Submits;
      S.sendAll(server::encodeFrame(
          "accepted", json::Value::object().set("id", 1)));
      return false; // hang up with the range in flight
    }
    return claimAllArtifacts(S, F);
  });

  ShardOptions Options;
  Options.ShardCount = 3;
  Options.WorkDir = freshDir("fleet_dead_worker");
  Options.Workers = {Survivor.hostPort(), Doomed.hostPort()};
  ShardCoordinator Coordinator(Options);
  std::string Error;
  ShardReport Report;
  std::optional<TaskResult> Merged = Coordinator.run(Spec, &Error, &Report);
  ASSERT_TRUE(Merged) << Error;
  expectBitIdentical(*Single, *Merged);

  // The fake worker was declared dead; the batch degraded to N-1 and the
  // survivor absorbed every range, including the re-dispatched one.
  ASSERT_EQ(Report.Fleet.Workers.size(), 2u);
  EXPECT_TRUE(Report.Fleet.Workers[0].Alive);
  EXPECT_FALSE(Report.Fleet.Workers[1].Alive);
  EXPECT_EQ(Report.Fleet.Workers[0].RangesDispatched, 3u);
  bool SawRedispatch = false;
  for (const std::string &Note : Report.Notes)
    SawRedispatch |=
        Note.find("re-dispatching range") != std::string::npos;
  EXPECT_TRUE(SawRedispatch) << "missing re-dispatch note";
  // The survivor's daemon was warmed over the wire and solved nothing.
  EXPECT_EQ(Survivor.Upstream.Service.stats().GCSolveMisses, 0u);
}

TEST(FleetTest, CorruptShardResultIsRejectedAndReRun) {
  TaskSpec Spec = testSpec(6);
  SimulationService Reference;
  std::optional<TaskResult> Single = Reference.run(Spec);
  ASSERT_TRUE(Single);

  // Returns a well-framed shard-result whose manifest is garbage, once,
  // then hangs up. The coordinator must reject the manifest (attempt
  // charge), re-dispatch, and finish on the honest worker.
  std::atomic<int> Lies{0};
  GatedWorker Honest(holdUntil([&Lies] { return Lies > 0; }));
  ASSERT_TRUE(Honest.Upstream.Started);
  FakeWorker Liar([&Lies](Socket &S, const Frame &F) {
    if (F.Type == "shard-submit") {
      ++Lies;
      S.sendAll(server::encodeFrame(
          "accepted", json::Value::object().set("id", 1)));
      S.sendAll(server::encodeFrame("shard-result",
                                    json::Value::object()
                                        .set("id", 1)
                                        .set("state", "done")
                                        .set("manifest", "garbage")));
      return false;
    }
    return claimAllArtifacts(S, F);
  });

  ShardOptions Options;
  Options.ShardCount = 3;
  Options.WorkDir = freshDir("fleet_corrupt_result");
  Options.Workers = {Honest.hostPort(), Liar.hostPort()};
  ShardCoordinator Coordinator(Options);
  std::string Error;
  ShardReport Report;
  std::optional<TaskResult> Merged = Coordinator.run(Spec, &Error, &Report);
  ASSERT_TRUE(Merged) << Error;
  expectBitIdentical(*Single, *Merged);
  EXPECT_EQ(Lies, 1);
  EXPECT_GE(Report.Retries, 1u);
  bool SawRejection = false;
  for (const std::string &Note : Report.Notes)
    SawRejection |=
        Note.find("re-dispatching the range") != std::string::npos;
  EXPECT_TRUE(SawRejection) << "missing corrupt-manifest rejection note";
  EXPECT_EQ(Honest.Upstream.Service.stats().GCSolveMisses, 0u);
}

TEST(FleetTest, FleetOfLiarsAbortsAfterBoundedAttempts) {
  TaskSpec Spec = testSpec(4);
  // The only worker keeps answering garbage manifests; the attempt
  // budget must end the batch instead of looping forever.
  FakeWorker Liar([](Socket &S, const Frame &F) {
    if (F.Type == "shard-submit") {
      S.sendAll(server::encodeFrame(
          "accepted", json::Value::object().set("id", 1)));
      return S.sendAll(server::encodeFrame("shard-result",
                                           json::Value::object()
                                               .set("id", 1)
                                               .set("state", "done")
                                               .set("manifest", "garbage")));
    }
    return claimAllArtifacts(S, F);
  });

  ShardOptions Options;
  Options.ShardCount = 1;
  Options.MaxAttempts = 2;
  Options.WorkDir = freshDir("fleet_liars_abort");
  Options.Workers = {Liar.hostPort()};
  std::string Error;
  EXPECT_FALSE(ShardCoordinator(Options).run(Spec, &Error));
  EXPECT_NE(Error.find("after 2 attempts"), std::string::npos) << Error;
}

TEST(FleetTest, NoLiveWorkersFailsInsteadOfHanging) {
  TaskSpec Spec = testSpec(3);
  // Both "workers" are ports nobody listens on; the connect retry budget
  // is spent quickly and the run must fail with a diagnosis, not hang.
  uint16_t Dead1 = 0, Dead2 = 0;
  {
    ListenSocket A, B;
    ASSERT_TRUE(A.listenOn("127.0.0.1", 0));
    ASSERT_TRUE(B.listenOn("127.0.0.1", 0));
    Dead1 = A.port();
    Dead2 = B.port();
  }
  ShardOptions Options;
  Options.ShardCount = 2;
  Options.WorkDir = freshDir("fleet_all_dead");
  Options.Workers = {"127.0.0.1:" + std::to_string(Dead1),
                     "127.0.0.1:" + std::to_string(Dead2)};
  Options.ConnectAttempts = 2;
  Options.ConnectDelayMs = 10;
  std::string Error;
  ShardReport Report;
  EXPECT_FALSE(ShardCoordinator(Options).run(Spec, &Error, &Report));
  EXPECT_NE(Error.find("no live workers remain"), std::string::npos)
      << Error;
  for (const FleetWorkerStats &WS : Report.Fleet.Workers)
    EXPECT_FALSE(WS.Alive);
}
