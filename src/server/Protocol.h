//===- server/Protocol.h - Daemon wire protocol -----------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line-delimited JSON protocol of the resident simulation daemon:
/// one frame per '\n'-terminated line, each frame a single JSON object
/// carrying a protocol version ("v") and a frame type ("type").
///
/// Request frames (client -> daemon):
///
///   type         | body                                   | response
///   -------------+----------------------------------------+----------------
///   submit       | spec (TaskSpec::toJson), stream?,      | accepted, then
///                | deadline_ms?                           | shot* + result
///   status       | id                                     | status
///   result       | id (blocks until the task is terminal) | result
///   cancel       | id                                     | ok
///   health       | —                                      | health
///   stats        | —                                      | stats
///   shutdown     | —                                      | ok, then drain
///   shard-submit | spec, begin, count, deadline_ms?       | accepted, then
///                |                                        | shard-result
///   artifact-get | atype, id, probe?                      | artifact
///   artifact-put | spec, atype, id, body                  | ok
///
/// Response frames: accepted, status, shot (streamed per-chunk shot
/// summaries + fidelity hexes), result, shard-result (manifest text for
/// one dispatched range), artifact (probe answer or encoded body), ok,
/// health, stats, error.
///
/// The last three request types are the cross-host execution fabric: a
/// fleet coordinator (marqsim-cli --workers=host:port,...) pushes the
/// deterministic artifacts of a task to each worker daemon
/// (content-addressed on the ArtifactStore's existing keys — "atype" is
/// artifactTypeName, "id" the content-hash id, "body" the codec text the
/// disk tier would hold), then dispatches shot ranges as shard-submit
/// frames and merges the returned manifests exactly as the single-host
/// shard path does. An artifact-get for a key the daemon has not
/// materialized answers error "not-found" (the daemon never computes on
/// demand); a probe answers presence without the body.
///
/// Determinism over the wire: a result frame carries the run as a
/// serialized ShardManifest (the PR 3 bit-exact artifact format), so the
/// client rebuilds its TaskResult through the same ShardCoordinator::merge
/// path that makes K-shard runs bit-identical to local ones. Doubles and
/// 64-bit words whose bits matter travel as hex16 strings throughout.
///
/// This header is also the home of the *one* machine-readable stats
/// serializer ("marqsim-stats-v1"): `marqsim-cli --stats-json` and the
/// daemon's result/stats frames all call runStatsJson, so the two surfaces
/// can never drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SERVER_PROTOCOL_H
#define MARQSIM_SERVER_PROTOCOL_H

#include "service/SimulationService.h"
#include "shard/ShardCoordinator.h"
#include "support/Json.h"

#include <cstdint>
#include <optional>
#include <string>

namespace marqsim {
namespace server {

/// Bumped on any incompatible frame-shape change. A daemon answers a
/// mismatched "v" with error code "version-mismatch" and keeps serving.
inline constexpr int ProtocolVersion = 1;

/// Per-line cap the daemon enforces on *request* frames. Submit frames
/// carry a whole inline Hamiltonian, so this is generous; anything larger
/// is a protocol violation, answered with "oversized" and a close.
inline constexpr size_t MaxRequestFrameBytes = 4u << 20;

/// Per-line cap clients enforce on *response* frames. Result frames carry
/// a full manifest (per-shot summaries + fidelity hexes for every shot),
/// which dwarfs any request.
inline constexpr size_t MaxResponseFrameBytes = 256u << 20;

/// A decoded frame: its type tag plus the full body object (the body
/// retains "v" and "type"; handlers just ignore them).
struct Frame {
  std::string Type;
  json::Value Body;
};

/// Renders \p Body (an object; "v" and "type" are prepended) as one
/// newline-terminated line ready for Socket::sendAll.
std::string encodeFrame(const std::string &Type, json::Value Body);

/// Shorthand for bodyless frames.
inline std::string encodeFrame(const std::string &Type) {
  return encodeFrame(Type, json::Value::object());
}

/// Parses one received line. Returns std::nullopt on malformed JSON,
/// non-object frames, a missing/non-string "type", or a version mismatch,
/// filling \p ErrorCode ("bad-frame" | "version-mismatch") and
/// \p ErrorMessage for the error frame the server should answer with.
std::optional<Frame> decodeFrame(const std::string &Line,
                                 std::string *ErrorCode = nullptr,
                                 std::string *ErrorMessage = nullptr);

/// Builds the standard error response line. Codes in use: "bad-frame",
/// "version-mismatch", "oversized", "unknown-type", "bad-spec",
/// "queue-full", "draining", "not-found", "busy", "internal".
std::string errorFrame(const std::string &Code, const std::string &Message,
                       uint64_t Id = 0);

//===----------------------------------------------------------------------===//
// Shared stats serializers ("marqsim-stats-v1")
//===----------------------------------------------------------------------===//

/// Service-cache accounting. "*_solves" counts work performed (the CLI's
/// "gc-solves" contract: a warm repeat run reports gc_solves == 0).
json::Value cacheStatsJson(const CacheStats &S);

/// Artifact-store tier accounting; \p LimitBytes is the configured
/// memory budget (0 = unbounded).
json::Value storeStatsJson(const ArtifactStore::Stats &S, size_t LimitBytes);

/// The kernel dispatch decision alone: selected tier, best-detected tier
/// (what dispatch would pick with no environment pin), and whether the OS
/// exposes the AVX-512 register state. Shared by the per-run stats and
/// the daemon's stats frame so the two surfaces can never disagree.
json::Value kernelDispatchJson();

/// The complete per-run stats object: fingerprint, batch aggregates and
/// hash, shot-0 gate counts, fidelity summary with exact per-shot hexes,
/// kernel tiers, cache and (optionally) store accounting. This is the one
/// serializer behind `marqsim-cli --stats-json` and the daemon's frames.
/// \p ShotZeroCircuit is shot 0's lowered circuit (for the depth); callers
/// lower it once for their QASM and pass it whenever Result.HasShotZero.
json::Value runStatsJson(const TaskSpec &Spec, const TaskResult &Result,
                         const Circuit *ShotZeroCircuit,
                         const ArtifactStore::Stats *Store,
                         size_t StoreLimitBytes);

/// Coordinator-side fleet accounting ("fleet" section of marqsim-stats-v1,
/// additive): per-worker ranges dispatched/re-dispatched, artifact fetch
/// hits/misses, bytes served, liveness, and eval CPU-seconds, plus the
/// fleet-wide totals. Shared by `marqsim-cli --stats-json` and the
/// human-readable --stats rendering so the surfaces cannot drift.
json::Value fleetStatsJson(const FleetStats &S);

/// Worker-daemon-side fabric accounting, embedded in the daemon's stats
/// frame ("fabric" section of marqsim-server-stats-v1, additive).
struct FabricServerStats {
  /// shard-submit frames admitted and shard-result frames answered.
  size_t ShardSubmits = 0;
  size_t ShardResults = 0;

  /// artifact-get / artifact-put frames served.
  size_t ArtifactGets = 0;
  size_t ArtifactPuts = 0;

  /// Fetch accounting from this daemon's perspective: keys it already
  /// held when asked (hits) vs bodies it had to receive (misses).
  size_t ArtifactHits = 0;
  size_t ArtifactMisses = 0;

  /// Body bytes received via artifact-put and served via artifact-get.
  size_t ArtifactBytesIn = 0;
  size_t ArtifactBytesOut = 0;
};

json::Value fabricStatsJson(const FabricServerStats &S);

} // namespace server
} // namespace marqsim

#endif // MARQSIM_SERVER_PROTOCOL_H
