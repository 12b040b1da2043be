//===- server/Client.cpp - Daemon client ----------------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"

#include "shard/ShardCoordinator.h"
#include "shard/ShardManifest.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace marqsim {
namespace server {

std::optional<DaemonClient> DaemonClient::connectTo(const std::string &HostPort,
                                                    std::string *Error,
                                                    ConnectOptions Opts) {
  std::string Host;
  uint16_t Port = 0;
  if (!parseHostPort(HostPort, Host, Port, Error))
    return std::nullopt;
  const unsigned Attempts = std::max(1u, Opts.Attempts);
  unsigned Delay = std::max(1u, Opts.DelayMs);
  const unsigned MaxDelay = std::max(Opts.MaxDelayMs, Delay);
  for (unsigned Attempt = 1;; ++Attempt) {
    std::optional<Socket> Sock = Socket::connectTo(Host, Port, Error);
    if (Sock)
      return DaemonClient(std::move(*Sock));
    if (Attempt >= Attempts)
      return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
    Delay = std::min(Delay * 2, MaxDelay);
  }
}

std::optional<Frame>
DaemonClient::roundTrip(const std::string &FrameLine,
                        const std::string &WantType, std::string *Error,
                        const std::function<void(const Frame &)> &OnOther) {
  if (!Sock.sendAll(FrameLine, Error))
    return std::nullopt;
  std::string Line;
  for (;;) {
    Socket::ReadStatus Status =
        Sock.readLine(Line, MaxResponseFrameBytes, Error);
    if (Status != Socket::ReadStatus::Line) {
      detail::fail(Error, Status == Socket::ReadStatus::Eof ||
                                  Status == Socket::ReadStatus::Truncated
                              ? "daemon closed the connection"
                              : "transport error reading from daemon");
      return std::nullopt;
    }
    std::string Code, Message;
    std::optional<Frame> F = decodeFrame(Line, &Code, &Message);
    if (!F) {
      detail::fail(Error, "bad frame from daemon: " + Message);
      return std::nullopt;
    }
    if (F->Type == "error") {
      const json::Value *C = F->Body.find("code");
      const json::Value *M = F->Body.find("message");
      detail::fail(Error, "daemon error [" +
                              (C && C->isString() ? C->asString()
                                                  : std::string("?")) +
                              "]: " +
                              (M && M->isString() ? M->asString()
                                                  : std::string("")));
      return std::nullopt;
    }
    if (F->Type == WantType)
      return F;
    if (OnOther)
      OnOther(*F);
    // Unexpected interleaved frames (e.g. streamed shots) are consumed.
  }
}

std::optional<RemoteRunResult> DaemonClient::runTask(const TaskSpec &Spec,
                                                     std::string *Error,
                                                     bool Stream,
                                                     uint64_t DeadlineMs,
                                                     ShotProgress OnShot) {
  // Resolve the operator locally *now*: the submit carries it inline, and
  // its fingerprint — computed here, on the client's own resolution —
  // is what the returned manifest must match.
  std::optional<json::Value> SpecJson = Spec.toJson(Error);
  if (!SpecJson)
    return std::nullopt;
  bool Canonical = Spec.Method == TaskMethod::Sampling;
  std::optional<Hamiltonian> H =
      SimulationService::resolveHamiltonian(Spec.Source, Error, Canonical);
  if (!H)
    return std::nullopt;
  const uint64_t ExpectedFingerprint = H->fingerprint();

  json::Value Submit = json::Value::object();
  Submit.set("spec", std::move(*SpecJson));
  if (Stream)
    Submit.set("stream", true);
  if (DeadlineMs)
    Submit.set("deadline_ms", static_cast<int64_t>(DeadlineMs));

  auto OnOther = [&](const Frame &F) {
    if (F.Type != "shot" || !OnShot)
      return;
    const json::Value *Begin = F.Body.find("begin");
    const json::Value *Count = F.Body.find("count");
    if (Begin && Count && Begin->kind() == json::Value::Kind::Int &&
        Count->kind() == json::Value::Kind::Int)
      OnShot(ShotRange{static_cast<size_t>(Begin->asInt()),
                       static_cast<size_t>(Count->asInt())},
             Spec.Shots);
  };
  // Shot frames may overtake the accepted frame on the wire (a fast
  // request can finish executing before the daemon's handler writes its
  // acceptance), so progress is forwarded from this round trip too.
  std::optional<Frame> Accepted = roundTrip(
      encodeFrame("submit", std::move(Submit)), "accepted", Error, OnOther);
  if (!Accepted)
    return std::nullopt;
  const json::Value *IdVal = Accepted->Body.find("id");
  if (!IdVal || IdVal->kind() != json::Value::Kind::Int ||
      IdVal->asInt() <= 0) {
    detail::fail(Error, "daemon accepted without a request id");
    return std::nullopt;
  }
  uint64_t Id = static_cast<uint64_t>(IdVal->asInt());
  std::optional<Frame> Result = roundTrip(
      encodeFrame("result",
                  json::Value::object().set("id", static_cast<int64_t>(Id))),
      "result", Error, OnOther);
  if (!Result)
    return std::nullopt;

  const json::Value *State = Result->Body.find("state");
  if (!State || !State->isString() || State->asString() != "done") {
    const json::Value *Message = Result->Body.find("error");
    detail::fail(Error,
                 "remote run " +
                     (State && State->isString() ? State->asString()
                                                 : std::string("failed")) +
                     (Message && Message->isString()
                          ? ": " + Message->asString()
                          : std::string()));
    return std::nullopt;
  }

  const json::Value *ManifestText = Result->Body.find("manifest");
  if (!ManifestText || !ManifestText->isString()) {
    detail::fail(Error, "result frame missing manifest");
    return std::nullopt;
  }
  std::optional<ShardManifest> Manifest =
      ShardManifest::parse(ManifestText->asString(), Error);
  if (!Manifest)
    return std::nullopt;

  // The merge re-validates everything — fingerprint, seed, contentKey,
  // coverage, range hash — and rebuilds the aggregates with the exact
  // sequential passes compileBatch runs. One full-range manifest is just
  // the K = 1 case of the sharded reconstruction.
  std::vector<ShardManifest> Manifests;
  Manifests.push_back(std::move(*Manifest));
  std::optional<TaskResult> Rebuilt = ShardCoordinator::merge(
      Spec, ExpectedFingerprint, std::move(Manifests), Error);
  if (!Rebuilt)
    return std::nullopt;

  RemoteRunResult Out;
  Out.Result = std::move(*Rebuilt);
  Out.RequestId = Id;
  if (const json::Value *Qasm = Result->Body.find("qasm");
      Qasm && Qasm->isString())
    Out.Qasm = Qasm->asString();
  if (const json::Value *Dot = Result->Body.find("dot");
      Dot && Dot->isString())
    Out.Dot = Dot->asString();
  if (const json::Value *Depth = Result->Body.find("depth");
      Depth && Depth->kind() == json::Value::Kind::Int)
    Out.Depth = static_cast<size_t>(Depth->asInt());
  if (const json::Value *Stats = Result->Body.find("stats"))
    Out.Stats = *Stats;
  return Out;
}

std::optional<json::Value> DaemonClient::serverStats(std::string *Error) {
  std::optional<Frame> F = roundTrip(encodeFrame("stats"), "stats", Error);
  if (!F)
    return std::nullopt;
  return std::move(F->Body);
}

bool DaemonClient::health(std::string *Error) {
  std::optional<Frame> F = roundTrip(encodeFrame("health"), "health", Error);
  if (!F)
    return false;
  const json::Value *Status = F->Body.find("status");
  return Status && Status->isString() && Status->asString() == "ok";
}

bool DaemonClient::shutdownServer(std::string *Error) {
  std::optional<Frame> F = roundTrip(encodeFrame("shutdown"), "ok", Error);
  return F.has_value();
}

//===----------------------------------------------------------------------===//
// Cross-host fabric
//===----------------------------------------------------------------------===//

std::optional<bool> DaemonClient::probeArtifact(const ArtifactKey &Key,
                                                std::string *Error) {
  json::Value Body = json::Value::object()
                         .set("atype", artifactTypeName(Key.Type))
                         .set("id", Key.Id)
                         .set("probe", true);
  std::optional<Frame> F =
      roundTrip(encodeFrame("artifact-get", std::move(Body)), "artifact",
                Error);
  if (!F)
    return std::nullopt;
  const json::Value *Found = F->Body.find("found");
  return Found && Found->asBool();
}

std::optional<bool> DaemonClient::putArtifact(const json::Value &SpecJson,
                                              const ArtifactKey &Key,
                                              const std::string &Body,
                                              std::string *Error) {
  json::Value Frame = json::Value::object()
                          .set("spec", SpecJson)
                          .set("atype", artifactTypeName(Key.Type))
                          .set("id", Key.Id)
                          .set("body", Body);
  std::optional<server::Frame> F =
      roundTrip(encodeFrame("artifact-put", std::move(Frame)), "ok", Error);
  if (!F)
    return std::nullopt;
  const json::Value *Stored = F->Body.find("stored");
  return Stored && Stored->asBool();
}

std::optional<std::string>
DaemonClient::runShardRange(const json::Value &SpecJson,
                            const ShotRange &Range, uint64_t DeadlineMs,
                            bool *TransportFailure, std::string *Error) {
  if (TransportFailure)
    *TransportFailure = false;
  json::Value Body = json::Value::object();
  Body.set("spec", SpecJson);
  Body.set("begin", static_cast<int64_t>(Range.Begin));
  Body.set("count", static_cast<int64_t>(Range.Count));
  if (DeadlineMs)
    Body.set("deadline_ms", static_cast<int64_t>(DeadlineMs));

  // Hand-rolled instead of roundTrip: the coordinator must distinguish a
  // dead worker (drop it, requeue the range for free) from a live worker
  // reporting failure (charge the range an attempt), and roundTrip folds
  // both into one failure path.
  if (!Sock.sendAll(encodeFrame("shard-submit", std::move(Body)), Error)) {
    if (TransportFailure)
      *TransportFailure = true;
    return std::nullopt;
  }
  std::string Line;
  for (;;) {
    Socket::ReadStatus Status =
        Sock.readLine(Line, MaxResponseFrameBytes, Error);
    if (Status != Socket::ReadStatus::Line) {
      if (TransportFailure)
        *TransportFailure = true;
      detail::fail(Error, Status == Socket::ReadStatus::Timeout
                              ? "worker timed out"
                              : "worker connection lost");
      return std::nullopt;
    }
    std::string Code, Message;
    std::optional<Frame> F = decodeFrame(Line, &Code, &Message);
    if (!F) {
      // The line framing held but the stream is garbled; it cannot be
      // resynchronized, so the worker is as good as dead.
      if (TransportFailure)
        *TransportFailure = true;
      detail::fail(Error, "bad frame from worker: " + Message);
      return std::nullopt;
    }
    if (F->Type == "error") {
      const json::Value *C = F->Body.find("code");
      const json::Value *M = F->Body.find("message");
      detail::fail(Error,
                   "worker error [" +
                       (C && C->isString() ? C->asString()
                                           : std::string("?")) +
                       "]: " +
                       (M && M->isString() ? M->asString()
                                           : std::string()));
      return std::nullopt;
    }
    if (F->Type == "accepted")
      continue;
    if (F->Type != "shard-result")
      continue; // unrelated interleaved frames are consumed
    const json::Value *State = F->Body.find("state");
    if (!State || !State->isString() || State->asString() != "done") {
      const json::Value *M = F->Body.find("error");
      detail::fail(Error,
                   "worker range " +
                       (State && State->isString() ? State->asString()
                                                   : std::string("failed")) +
                       (M && M->isString() ? ": " + M->asString()
                                           : std::string()));
      return std::nullopt;
    }
    const json::Value *Manifest = F->Body.find("manifest");
    if (!Manifest || !Manifest->isString()) {
      detail::fail(Error, "shard-result frame missing manifest");
      return std::nullopt;
    }
    return Manifest->asString();
  }
}

} // namespace server
} // namespace marqsim
