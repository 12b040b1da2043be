//===- server/Daemon.cpp - Resident simulation daemon ---------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Daemon.h"

#include "circuit/QasmExport.h"
#include "server/Protocol.h"
#include "shard/ShardManifest.h"
#include "support/Serial.h"

#include <fcntl.h>
#include <unistd.h>

#include <future>
#include <sstream>

namespace marqsim {
namespace server {

/// One live client connection: its socket, handler thread, and a write
/// lock serializing response frames (streamed shot frames are written
/// from executor threads while the handler may answer other requests).
struct Daemon::Connection {
  uint64_t Id = 0;
  Socket Sock;
  std::thread Handler;
  std::mutex WriteMutex;
  std::atomic<bool> Done{false};

  bool send(const std::string &Frame) {
    std::lock_guard<std::mutex> Lock(WriteMutex);
    return Sock.sendAll(Frame);
  }
};

Daemon::Daemon(SimulationService &Service, DaemonOptions Opts)
    : Service(Service), Opts(std::move(Opts)), Sched(Service, this->Opts.Scheduler) {
  if (::pipe(WakePipe) == 0) {
    ::fcntl(WakePipe[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(WakePipe[1], F_SETFD, FD_CLOEXEC);
  }
}

Daemon::~Daemon() {
  notifyShutdown();
  if (Acceptor.joinable())
    Acceptor.join();
  std::vector<std::shared_ptr<Connection>> Open;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Open = Connections;
    for (auto &Conn : Open)
      Conn->Sock.shutdownRead();
  }
  for (auto &Conn : Open)
    if (Conn->Handler.joinable())
      Conn->Handler.join();
  if (WakePipe[0] >= 0)
    ::close(WakePipe[0]);
  if (WakePipe[1] >= 0)
    ::close(WakePipe[1]);
}

bool Daemon::start(std::string *Error) {
  if (WakePipe[0] < 0)
    return detail::fail(Error, "daemon: wake pipe unavailable");
  if (!Listener.listenOn(Opts.Host, Opts.Port, Error))
    return false;
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

uint16_t Daemon::port() const { return Listener.port(); }

void Daemon::notifyShutdown() {
  // Called from signal handlers: only async-signal-safe calls here.
  ShutdownRequested.store(true, std::memory_order_relaxed);
  if (WakePipe[1] >= 0) {
    char Byte = 'x';
    ssize_t Ignored = ::write(WakePipe[1], &Byte, 1);
    (void)Ignored;
  }
}

void Daemon::reapFinishedLocked() {
  for (auto It = Connections.begin(); It != Connections.end();) {
    if ((*It)->Done.load(std::memory_order_acquire)) {
      if ((*It)->Handler.joinable())
        (*It)->Handler.join();
      It = Connections.erase(It);
    } else {
      ++It;
    }
  }
}

void Daemon::acceptLoop() {
  for (;;) {
    bool Woke = false;
    std::optional<Socket> Conn = Listener.accept(WakePipe[0], &Woke);
    if (Woke || ShutdownRequested.load(std::memory_order_relaxed))
      return;
    if (!Conn)
      return; // listener error: stop accepting, serve() will drain
    std::lock_guard<std::mutex> Lock(ConnMutex);
    reapFinishedLocked();
    if (Connections.size() >= Opts.MaxConnections) {
      Conn->sendAll(errorFrame("busy", "connection limit reached"));
      continue; // Socket destructor closes
    }
    auto Slot = std::make_shared<Connection>();
    Slot->Id = NextConnId++;
    Slot->Sock = std::move(*Conn);
    Connections.push_back(Slot);
    Slot->Handler = std::thread([this, Slot] { handleConnection(Slot); });
  }
}

namespace {

/// Pulls a positive "id" member out of a request body.
uint64_t frameId(const json::Value &Body) {
  const json::Value *Id = Body.find("id");
  if (!Id || Id->kind() != json::Value::Kind::Int || Id->asInt() <= 0)
    return 0;
  return static_cast<uint64_t>(Id->asInt());
}

json::Value shotChunkBody(uint64_t Id, const ShotRange &Range,
                          const std::vector<ShotSummary> &Shots,
                          const std::vector<double> &Fidelities) {
  json::Value Body = json::Value::object();
  Body.set("id", static_cast<int64_t>(Id));
  Body.set("begin", static_cast<int64_t>(Range.Begin));
  Body.set("count", static_cast<int64_t>(Range.Count));
  json::Value Rows = json::Value::array();
  for (const ShotSummary &S : Shots) {
    json::Value Row = json::Value::array();
    Row.push(static_cast<int64_t>(S.NumSamples));
    Row.push(static_cast<int64_t>(S.Counts.CNOTs));
    Row.push(static_cast<int64_t>(S.Counts.SingleQubit));
    Row.push(static_cast<int64_t>(S.Stats.CancelledCNOTs));
    Row.push(static_cast<int64_t>(S.Stats.CancelledSingles));
    Row.push(serial::hex16(S.SequenceHash));
    Rows.push(std::move(Row));
  }
  Body.set("shots", std::move(Rows));
  if (!Fidelities.empty()) {
    json::Value Hexes = json::Value::array();
    for (double F : Fidelities)
      Hexes.push(serial::hex16(serial::doubleBits(F)));
    Body.set("fidelity", std::move(Hexes));
  }
  return Body;
}

/// The "spec" member of a submit, shard-submit or artifact-put frame;
/// std::nullopt with \p Error (answered "bad-spec") when it is missing or
/// malformed.
std::optional<TaskSpec> specMember(const Frame &F, std::string *Error) {
  const json::Value *SpecJson = F.Body.find("spec");
  if (!SpecJson) {
    detail::fail(Error, F.Type + " frame missing 'spec'");
    return std::nullopt;
  }
  return TaskSpec::fromJson(*SpecJson, Error);
}

/// The optional "deadline_ms" member of a submit or shard-submit; 0 (no
/// deadline) unless it is a positive integer.
uint64_t deadlineMs(const json::Value &Body) {
  const json::Value *D = Body.find("deadline_ms");
  if (D && D->kind() == json::Value::Kind::Int && D->asInt() > 0)
    return static_cast<uint64_t>(D->asInt());
  return 0;
}

/// The error code a refused submit or shard-submit answers with.
const char *rejectCode(SubmitReject Reject) {
  switch (Reject) {
  case SubmitReject::QueueFull:
    return "queue-full";
  case SubmitReject::Draining:
    return "draining";
  case SubmitReject::None:
  case SubmitReject::Invalid:
    break;
  }
  return "bad-spec";
}

} // namespace

void Daemon::handleConnection(const std::shared_ptr<Connection> &Conn) {
  if (Opts.IdleTimeoutMs)
    Conn->Sock.setRecvTimeout(Opts.IdleTimeoutMs);
  const std::string ClientKey = "conn-" + std::to_string(Conn->Id);

  std::string Line;
  for (;;) {
    Socket::ReadStatus Status =
        Conn->Sock.readLine(Line, MaxRequestFrameBytes);
    if (Status == Socket::ReadStatus::Oversized) {
      Conn->send(errorFrame("oversized",
                            "request frame exceeds " +
                                std::to_string(MaxRequestFrameBytes) +
                                " bytes"));
      break; // mid-frame; the stream cannot be resynchronized
    }
    if (Status != Socket::ReadStatus::Line)
      break; // Eof / Truncated / Timeout / Error all end the connection

    std::string Code, Message;
    std::optional<Frame> F = decodeFrame(Line, &Code, &Message);
    if (!F) {
      // Line framing is intact, so the connection survives a bad frame.
      Conn->send(errorFrame(Code, Message));
      continue;
    }

    // A frame that throws (an allocation a request asks for, say) answers
    // an internal error; the connection and the daemon keep serving.
    try {
      if (F->Type == "submit") {
        std::string Error;
        std::optional<TaskSpec> Spec = specMember(*F, &Error);
        if (!Spec) {
          Conn->send(errorFrame("bad-spec", Error));
          continue;
        }
        // The daemon always compiles shot 0 exportably: the result frame
        // carries the QASM text, and contentKey ignores this flag, so the
        // manifest still matches the client's spec.
        Spec->Evaluate.ExportShotZero = true;
        Spec->Evaluate.KeepResults = false;

        bool Stream = false;
        if (const json::Value *S = F->Body.find("stream"))
          Stream = S->asBool();

        // The sink fires from executor threads strictly before the request
        // turns terminal, so every shot frame precedes the result frame
        // the handler sends after wait(). Dispatch can outrun this handler
        // (submit() may start executing before it returns), so the sink
        // blocks on the id future rather than reading a not-yet-filled
        // cell — shot frames always carry the real request id, even when
        // they overtake the accepted frame on the wire.
        ShotSink Sink;
        std::shared_ptr<std::promise<uint64_t>> IdPromise;
        if (Stream) {
          IdPromise = std::make_shared<std::promise<uint64_t>>();
          auto IdFuture = std::make_shared<std::shared_future<uint64_t>>(
              IdPromise->get_future().share());
          Sink = [Conn, IdFuture](const ShotRange &Range,
                                  const std::vector<ShotSummary> &Shots,
                                  const std::vector<double> &Fids) {
            Conn->send(encodeFrame(
                "shot", shotChunkBody(IdFuture->get(), Range, Shots, Fids)));
          };
        }

        SubmitReject Reject = SubmitReject::None;
        uint64_t Id = Sched.submit(std::move(*Spec), ClientKey, &Reject,
                                   &Error, std::move(Sink),
                                   deadlineMs(F->Body));
        if (IdPromise)
          IdPromise->set_value(Id); // unblocks the sink (no-op if rejected)
        if (!Id) {
          Conn->send(errorFrame(rejectCode(Reject), Error));
          continue;
        }
        Conn->send(encodeFrame(
            "accepted",
            json::Value::object().set("id", static_cast<int64_t>(Id))));
      } else if (F->Type == "status") {
        uint64_t Id = frameId(F->Body);
        if (!Id) {
          Conn->send(errorFrame("bad-frame", "status needs a positive 'id'"));
          continue;
        }
        std::optional<RequestState> State = Sched.status(Id);
        if (!State) {
          Conn->send(errorFrame("not-found", "unknown request id", Id));
          continue;
        }
        Conn->send(encodeFrame("status",
                               json::Value::object()
                                   .set("id", static_cast<int64_t>(Id))
                                   .set("state", stateName(*State))));
      } else if (F->Type == "result") {
        uint64_t Id = frameId(F->Body);
        if (!Id) {
          Conn->send(errorFrame("bad-frame", "result needs a positive 'id'"));
          continue;
        }
        std::optional<RequestOutcome> Out = Sched.wait(Id);
        if (!Out) {
          Conn->send(errorFrame("not-found", "unknown request id", Id));
          continue;
        }
        json::Value Body = json::Value::object();
        Body.set("id", static_cast<int64_t>(Id));
        Body.set("state", stateName(Out->State));
        if (Out->State != RequestState::Done) {
          Body.set("error", Out->Error);
        } else {
          const TaskSpec &Spec = *Out->Spec;
          const TaskResult &Result = *Out->Result;
          // The manifest is the bit-exact payload: the client rebuilds its
          // TaskResult through the same merge that reconstructs sharded
          // runs, so aggregates, batch hash, and fidelities round-trip
          // exactly. QASM/DOT are full-fidelity text already.
          ShardManifest Manifest = ShardManifest::fromTaskResult(
              Spec, ShotRange{0, Spec.Shots}, Result);
          Body.set("manifest", Manifest.serialize());
          std::optional<Circuit> ShotZero;
          if (Result.HasShotZero) {
            ShotZero = Result.ShotZero.circuit();
            std::ostringstream Qasm;
            exportQasm(*ShotZero, Qasm);
            Body.set("qasm", Qasm.str());
            Body.set("depth", static_cast<int64_t>(ShotZero->depth()));
          }
          if (!Result.GraphDot.empty())
            Body.set("dot", Result.GraphDot);
          ArtifactStore::Stats Store = Service.storeStats();
          Body.set("stats",
                   runStatsJson(Spec, Result, ShotZero ? &*ShotZero : nullptr,
                                &Store, Opts.StoreLimitBytes));
        }
        Conn->send(encodeFrame("result", std::move(Body)));
      } else if (F->Type == "cancel") {
        uint64_t Id = frameId(F->Body);
        bool Cancelled = Id && Sched.cancel(Id);
        Conn->send(encodeFrame("ok", json::Value::object()
                                         .set("id", static_cast<int64_t>(Id))
                                         .set("cancelled", Cancelled)));
      } else if (F->Type == "health") {
        SchedulerStats S = Sched.stats();
        size_t Open;
        {
          std::lock_guard<std::mutex> Lock(ConnMutex);
          Open = Connections.size();
        }
        Conn->send(encodeFrame(
            "health",
            json::Value::object()
                .set("status", "ok")
                .set("draining", DrainingFlag.load(std::memory_order_relaxed))
                .set("connections", Open)
                .set("queue_depth", S.QueueDepth)
                .set("running", S.Running)));
      } else if (F->Type == "stats") {
        Conn->send(encodeFrame("stats", statsJson()));
      } else if (F->Type == "shutdown") {
        Conn->send(encodeFrame("ok", json::Value::object()
                                         .set("shutdown", true)));
        notifyShutdown();
      } else if (F->Type == "shard-submit") {
        Fabric.ShardSubmits.fetch_add(1, std::memory_order_relaxed);
        std::string Error;
        std::optional<TaskSpec> Spec = specMember(*F, &Error);
        if (!Spec) {
          Conn->send(errorFrame("bad-spec", Error));
          continue;
        }
        const json::Value *Begin = F->Body.find("begin");
        const json::Value *Count = F->Body.find("count");
        if (!Begin || Begin->kind() != json::Value::Kind::Int ||
            Begin->asInt() < 0 || !Count ||
            Count->kind() != json::Value::Kind::Int || Count->asInt() <= 0) {
          Conn->send(errorFrame(
              "bad-frame",
              "shard-submit needs integer 'begin' >= 0 and 'count' > 0"));
          continue;
        }
        ShotRange Range{static_cast<size_t>(Begin->asInt()),
                        static_cast<size_t>(Count->asInt())};
        // Mirror the single-host worker path (ShardCoordinator::runShard):
        // per-shot extras cannot travel through a manifest, so the worker
        // never computes them. contentKey ignores these flags, so the
        // manifest's SpecKey still matches the coordinator's spec.
        Spec->Evaluate.ExportShotZero = false;
        Spec->Evaluate.KeepResults = false;
        Spec->Evaluate.DumpDot = false;

        SubmitReject Reject = SubmitReject::None;
        uint64_t Id = Sched.submit(std::move(*Spec), ClientKey, &Reject,
                                   &Error, nullptr, deadlineMs(F->Body), Range);
        if (!Id) {
          Conn->send(errorFrame(rejectCode(Reject), Error));
          continue;
        }
        Conn->send(encodeFrame(
            "accepted",
            json::Value::object().set("id", static_cast<int64_t>(Id))));
        // Block until the range is terminal: the fleet coordinator drives
        // one range per connection at a time and waits for the manifest.
        std::optional<RequestOutcome> Out = Sched.wait(Id);
        json::Value Body = json::Value::object();
        Body.set("id", static_cast<int64_t>(Id));
        if (!Out) {
          Body.set("state", "failed");
          Body.set("error", "request evicted before its result was read");
        } else if (Out->State != RequestState::Done) {
          Body.set("state", stateName(Out->State));
          Body.set("error", Out->Error);
        } else {
          Body.set("state", stateName(Out->State));
          ShardManifest Manifest =
              ShardManifest::fromTaskResult(*Out->Spec, Range, *Out->Result);
          Body.set("manifest", Manifest.serialize());
        }
        Fabric.ShardResults.fetch_add(1, std::memory_order_relaxed);
        Conn->send(encodeFrame("shard-result", std::move(Body)));
      } else if (F->Type == "artifact-get") {
        Fabric.ArtifactGets.fetch_add(1, std::memory_order_relaxed);
        const json::Value *TypeName = F->Body.find("atype");
        const json::Value *IdVal = F->Body.find("id");
        std::optional<ArtifactType> Type;
        if (TypeName && TypeName->isString())
          Type = artifactTypeFromName(TypeName->asString());
        if (!Type || !IdVal || !IdVal->isString() ||
            IdVal->asString().empty()) {
          Conn->send(errorFrame("bad-frame",
                                "artifact-get needs a known 'atype' and a "
                                "non-empty 'id'"));
          continue;
        }
        // A presence probe: it answers from what the daemon holds, encodes
        // nothing and never computes. Workers are only ever pushed to, so
        // no body leaves the daemon; the "probe" member coordinators send
        // is accepted and needs no reading.
        ArtifactKey Key{*Type, IdVal->asString()};
        const bool Found = Service.hasArtifact(Key);
        if (Found)
          Fabric.ArtifactHits.fetch_add(1, std::memory_order_relaxed);
        Conn->send(encodeFrame("artifact",
                               json::Value::object()
                                   .set("atype", artifactTypeName(*Type))
                                   .set("id", Key.Id)
                                   .set("found", Found)));
      } else if (F->Type == "artifact-put") {
        Fabric.ArtifactPuts.fetch_add(1, std::memory_order_relaxed);
        std::string Error;
        std::optional<TaskSpec> Spec = specMember(*F, &Error);
        if (!Spec) {
          Conn->send(errorFrame("bad-spec", Error));
          continue;
        }
        const json::Value *TypeName = F->Body.find("atype");
        const json::Value *IdVal = F->Body.find("id");
        const json::Value *BodyVal = F->Body.find("body");
        std::optional<ArtifactType> Type;
        if (TypeName && TypeName->isString())
          Type = artifactTypeFromName(TypeName->asString());
        if (!Type || !IdVal || !IdVal->isString() ||
            IdVal->asString().empty() || !BodyVal || !BodyVal->isString()) {
          Conn->send(errorFrame("bad-frame",
                                "artifact-put needs a known 'atype', a "
                                "non-empty 'id', and a string 'body'"));
          continue;
        }
        ArtifactKey Key{*Type, IdVal->asString()};
        const std::string &BodyText = BodyVal->asString();
        std::optional<ArtifactImport> Import =
            Service.importArtifact(*Spec, Key, BodyText, &Error);
        if (!Import) {
          // Unknown key for the spec or an undecodable body; either way
          // nothing entered the cache.
          Conn->send(errorFrame("bad-spec", Error));
          continue;
        }
        if (*Import == ArtifactImport::Inserted) {
          Fabric.ArtifactMisses.fetch_add(1, std::memory_order_relaxed);
          Fabric.ArtifactBytesIn.fetch_add(BodyText.size(),
                                           std::memory_order_relaxed);
        } else {
          Fabric.ArtifactHits.fetch_add(1, std::memory_order_relaxed);
        }
        Conn->send(encodeFrame(
            "ok", json::Value::object()
                      .set("id", Key.Id)
                      .set("stored", *Import == ArtifactImport::Inserted)));
      } else {
        Conn->send(errorFrame("unknown-type",
                              "unknown frame type '" + F->Type + "'"));
      }
    } catch (const std::exception &E) {
      Conn->send(errorFrame("internal",
                            std::string("internal error: ") + E.what()));
    }
  }
  {
    // Drain shuts the socket down under ConnMutex and a streaming sink
    // sends under WriteMutex; closing under both keeps either from
    // touching a closed, possibly reused, fd.
    std::scoped_lock Lock(ConnMutex, Conn->WriteMutex);
    Conn->Sock.close();
  }
  Conn->Done.store(true, std::memory_order_release);
}

json::Value Daemon::statsJson() const {
  json::Value V = json::Value::object();
  V.set("format", "marqsim-server-stats-v3");
  size_t Open;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Open = Connections.size();
  }
  json::Value Server = Sched.stats().toJson();
  Server.set("connections", Open);
  Server.set("draining", DrainingFlag.load(std::memory_order_relaxed));
  V.set("server", std::move(Server));
  V.set("cache", cacheStatsJson(Service.stats()));
  V.set("store", storeStatsJson(Service.storeStats(), Opts.StoreLimitBytes));
  V.set("kernels", kernelDispatchJson());
  FabricServerStats FS;
  FS.ShardSubmits = Fabric.ShardSubmits.load(std::memory_order_relaxed);
  FS.ShardResults = Fabric.ShardResults.load(std::memory_order_relaxed);
  FS.ArtifactGets = Fabric.ArtifactGets.load(std::memory_order_relaxed);
  FS.ArtifactPuts = Fabric.ArtifactPuts.load(std::memory_order_relaxed);
  FS.ArtifactHits = Fabric.ArtifactHits.load(std::memory_order_relaxed);
  FS.ArtifactMisses = Fabric.ArtifactMisses.load(std::memory_order_relaxed);
  FS.ArtifactBytesIn = Fabric.ArtifactBytesIn.load(std::memory_order_relaxed);
  V.set("fabric", fabricStatsJson(FS));
  return V;
}

int Daemon::serve() {
  if (Acceptor.joinable())
    Acceptor.join(); // blocks until notifyShutdown wakes the accept loop

  // Drain order matters: finish every admitted request first (clients
  // blocked in `result` get their frames), then unblock idle readers so
  // the handler threads can exit.
  DrainingFlag.store(true, std::memory_order_relaxed);
  Sched.drain();
  Listener.close();

  std::vector<std::shared_ptr<Connection>> Open;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Open = Connections;
    for (auto &Conn : Open)
      Conn->Sock.shutdownRead();
  }
  for (auto &Conn : Open)
    if (Conn->Handler.joinable())
      Conn->Handler.join();
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Connections.clear();
  }
  return 0;
}

int Daemon::run(std::string *Error) {
  if (!start(Error))
    return 2;
  return serve();
}

} // namespace server
} // namespace marqsim
