//===- server/Protocol.cpp - Daemon wire protocol -------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "support/Serial.h"

#include <cassert>

namespace marqsim {
namespace server {

std::string encodeFrame(const std::string &Type, json::Value Body) {
  // Rebuild with "v"/"type" leading so every frame starts predictably —
  // handy for humans reading transcripts, irrelevant to the parser.
  json::Value Frame = json::Value::object();
  Frame.set("v", ProtocolVersion);
  Frame.set("type", Type);
  if (const auto *Members = Body.members())
    for (const json::Member &M : *Members)
      if (M.first != "v" && M.first != "type")
        Frame.set(M.first, M.second);
  return Frame.dump() + "\n";
}

std::optional<Frame> decodeFrame(const std::string &Line,
                                 std::string *ErrorCode,
                                 std::string *ErrorMessage) {
  auto Fail = [&](const char *Code, std::string Message) {
    if (ErrorCode)
      *ErrorCode = Code;
    if (ErrorMessage)
      *ErrorMessage = std::move(Message);
    return std::nullopt;
  };
  std::string ParseError;
  std::optional<json::Value> V = json::Value::parse(Line, &ParseError);
  if (!V)
    return Fail("bad-frame", "malformed frame: " + ParseError);
  if (!V->isObject())
    return Fail("bad-frame", "frame must be a JSON object");
  const json::Value *Ver = V->find("v");
  if (!Ver || Ver->kind() != json::Value::Kind::Int)
    return Fail("bad-frame", "frame missing integer 'v'");
  if (Ver->asInt() != ProtocolVersion)
    return Fail("version-mismatch",
                "protocol version " + std::to_string(Ver->asInt()) +
                    " unsupported (this side speaks " +
                    std::to_string(ProtocolVersion) + ")");
  const json::Value *Type = V->find("type");
  if (!Type || !Type->isString() || Type->asString().empty())
    return Fail("bad-frame", "frame missing string 'type'");
  Frame F;
  F.Type = Type->asString();
  F.Body = std::move(*V);
  return F;
}

std::string errorFrame(const std::string &Code, const std::string &Message,
                       uint64_t Id) {
  json::Value Body = json::Value::object();
  Body.set("code", Code);
  Body.set("message", Message);
  if (Id)
    Body.set("id", static_cast<int64_t>(Id));
  return encodeFrame("error", std::move(Body));
}

//===----------------------------------------------------------------------===//
// Stats serializers
//===----------------------------------------------------------------------===//

json::Value cacheStatsJson(const CacheStats &S) {
  return json::Value::object()
      .set("gc_hits", S.GCSolveHits)
      .set("gc_solves", S.GCSolveMisses)
      .set("rp_hits", S.RPSolveHits)
      .set("rp_solves", S.RPSolveMisses)
      .set("graph_hits", S.GraphHits)
      .set("graph_builds", S.GraphMisses)
      .set("evaluator_hits", S.EvaluatorHits)
      .set("evaluator_builds", S.EvaluatorMisses)
      .set("super_hits", S.SuperHits)
      .set("super_builds", S.SuperMisses)
      .set("disk_loads", S.DiskLoads);
}

json::Value storeStatsJson(const ArtifactStore::Stats &S, size_t LimitBytes) {
  return json::Value::object()
      .set("mem_hits", S.MemoryHits)
      .set("disk_hits", S.DiskHits)
      .set("computes", S.Computes)
      .set("evictions", S.Evictions)
      .set("evicted_bytes", S.EvictedBytes)
      .set("disk_writes", S.DiskWrites)
      .set("bytes", S.BytesInUse)
      .set("peak_bytes", S.PeakBytes)
      .set("limit_bytes", static_cast<int64_t>(LimitBytes));
}

json::Value kernelDispatchJson() {
  // Additive keys only: "tier" predates "detected"/"avx512_os", so
  // marqsim-stats-v1 consumers keep parsing unchanged.
  return json::Value::object()
      .set("tier", SimulationService::kernelName())
      .set("detected", SimulationService::detectedKernelName())
      .set("avx512_os", SimulationService::avx512OsEnabled());
}

json::Value runStatsJson(const TaskSpec &Spec, const TaskResult &Result,
                         const Circuit *ShotZeroCircuit,
                         const ArtifactStore::Stats *Store,
                         size_t StoreLimitBytes) {
  json::Value V = json::Value::object();
  V.set("format", "marqsim-stats-v1");
  V.set("fingerprint", serial::hex16(Result.Fingerprint));

  const BatchResult &Batch = Result.Batch;
  V.set("batch", json::Value::object()
                     .set("shots", static_cast<int64_t>(Batch.NumShots))
                     .set("jobs", Batch.JobsUsed)
                     .set("seed", serial::hex16(Batch.Seed))
                     .set("hash", serial::hex16(Batch.batchHash()))
                     .set("strategy", Batch.StrategyName)
                     .set("wall_seconds", Batch.Seconds)
                     .set("eval_seconds", Batch.EvalSeconds));

  if (Result.HasShotZero) {
    assert(ShotZeroCircuit && "shot 0 present but not lowered by the caller");
    const CompilationResult &R = Result.ShotZero;
    V.set("shot0", json::Value::object()
                       .set("samples", static_cast<int64_t>(R.NumSamples))
                       .set("cnots", static_cast<int64_t>(R.Counts.CNOTs))
                       .set("singles",
                            static_cast<int64_t>(R.Counts.SingleQubit))
                       .set("total", static_cast<int64_t>(R.Counts.total()))
                       .set("depth",
                            static_cast<int64_t>(ShotZeroCircuit->depth())));
  }

  if (Result.HasFidelity) {
    // The mean is informational; the per-shot hexes are the exact bits —
    // CI byte-diffs them between local and daemon runs.
    json::Value Hexes = json::Value::array();
    for (double F : Result.ShotFidelities)
      Hexes.push(serial::hex16(serial::doubleBits(F)));
    V.set("fidelity",
          json::Value::object()
              .set("columns",
                   static_cast<int64_t>(Spec.Evaluate.FidelityColumns))
              .set("mean", Result.Fidelity.Mean)
              .set("hex", std::move(Hexes)));
  }

  // "precision" is a constant: evaluation runs in FP64 only, and the key
  // stays so marqsim-stats-v1 loses no member.
  V.set("kernels", kernelDispatchJson().set("precision", "fp64"));
  // Always present so consumers need no existence probe; a noiseless run
  // reports channel "none".
  V.set("noise",
        json::Value::object()
            .set("channel", noiseChannelName(Spec.Noise.Kind))
            .set("mode", noiseModeName(Spec.Noise.Mode))
            .set("prob", Spec.Noise.Prob)
            .set("two_qubit_factor", Spec.Noise.TwoQubitFactor));
  V.set("cache", cacheStatsJson(Result.Stats));
  if (Store)
    V.set("store", storeStatsJson(*Store, StoreLimitBytes));
  return V;
}

json::Value fleetStatsJson(const FleetStats &S) {
  json::Value Workers = json::Value::array();
  size_t Dispatched = 0, Redispatched = 0, Hits = 0, Misses = 0, Bytes = 0;
  size_t Dead = 0;
  for (const FleetWorkerStats &W : S.Workers) {
    Dispatched += W.RangesDispatched;
    Redispatched += W.RangesRedispatched;
    Hits += W.FetchHits;
    Misses += W.FetchMisses;
    Bytes += W.ArtifactBytesServed;
    if (!W.Alive)
      ++Dead;
    Workers.push(json::Value::object()
                     .set("worker", W.HostPort)
                     .set("alive", W.Alive)
                     .set("ranges_dispatched", W.RangesDispatched)
                     .set("ranges_redispatched", W.RangesRedispatched)
                     .set("fetch_hits", W.FetchHits)
                     .set("fetch_misses", W.FetchMisses)
                     .set("artifact_bytes_served", W.ArtifactBytesServed)
                     .set("eval_seconds", W.EvalSeconds));
  }
  return json::Value::object()
      .set("workers", S.Workers.size())
      .set("dead_workers", Dead)
      .set("ranges_dispatched", Dispatched)
      .set("ranges_redispatched", Redispatched)
      .set("fetch_hits", Hits)
      .set("fetch_misses", Misses)
      .set("artifact_bytes_served", Bytes)
      .set("per_worker", std::move(Workers));
}

json::Value fabricStatsJson(const FabricServerStats &S) {
  return json::Value::object()
      .set("shard_submits", S.ShardSubmits)
      .set("shard_results", S.ShardResults)
      .set("artifact_gets", S.ArtifactGets)
      .set("artifact_puts", S.ArtifactPuts)
      .set("artifact_hits", S.ArtifactHits)
      .set("artifact_misses", S.ArtifactMisses)
      .set("artifact_bytes_in", S.ArtifactBytesIn)
      .set("artifact_bytes_out", S.ArtifactBytesOut);
}

} // namespace server
} // namespace marqsim
