//===- server/Client.h - Daemon client ---------------------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the daemon protocol, used by `marqsim-cli
/// --connect host:port`. A remote run resolves the Hamiltonian locally,
/// ships the spec as bit-exact JSON, and rebuilds the TaskResult from
/// the returned manifest through ShardCoordinator::merge — the same path
/// that makes sharded runs bit-identical to local ones, now across a
/// socket.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SERVER_CLIENT_H
#define MARQSIM_SERVER_CLIENT_H

#include "server/Protocol.h"
#include "support/Socket.h"

#include <functional>
#include <optional>
#include <string>

namespace marqsim {
namespace server {

/// Everything a remote run returns. TaskResult::HasShotZero is false —
/// shot 0 travels as rendered text instead (Qasm/Dot/Depth).
struct RemoteRunResult {
  TaskResult Result;
  std::string Qasm;
  std::string Dot;
  size_t Depth = 0;
  uint64_t RequestId = 0;
  /// The daemon-side "marqsim-stats-v1" object for this run (its cache
  /// accounting is the daemon's, which is what a cache-hit check wants).
  json::Value Stats;
};

/// Streamed-progress callback: (chunk range, total shots).
using ShotProgress = std::function<void(const ShotRange &, size_t)>;

/// Bounded connect retry: \p Attempts tries total, sleeping \p DelayMs
/// before the second and doubling per retry up to \p MaxDelayMs. The
/// defaults are the single-attempt behavior connectTo always had; fleet
/// coordinators and CI smoke tests raise Attempts to absorb daemons
/// still binding their port.
struct ConnectOptions {
  unsigned Attempts = 1;
  unsigned DelayMs = 100;
  unsigned MaxDelayMs = 2000;
};

/// One connection to a resident daemon. Not thread-safe; one in-flight
/// request at a time.
class DaemonClient {
public:
  /// Connects to "host:port", retrying per \p Opts. Returns std::nullopt
  /// with \p Error on malformed addresses or when every attempt is
  /// refused.
  static std::optional<DaemonClient> connectTo(const std::string &HostPort,
                                               std::string *Error = nullptr,
                                               ConnectOptions Opts = {});

  /// Submits \p Spec, waits for the result, and reconstructs a
  /// bit-identical TaskResult from the returned manifest. \p Stream asks
  /// the daemon for per-chunk shot frames (reported via \p OnShot).
  std::optional<RemoteRunResult> runTask(const TaskSpec &Spec,
                                         std::string *Error = nullptr,
                                         bool Stream = false,
                                         uint64_t DeadlineMs = 0,
                                         ShotProgress OnShot = nullptr);

  /// Fetches the daemon's stats-frame body.
  std::optional<json::Value> serverStats(std::string *Error = nullptr);

  /// health frame round trip; true when the daemon answers "ok".
  bool health(std::string *Error = nullptr);

  /// Asks the daemon to drain and exit.
  bool shutdownServer(std::string *Error = nullptr);

  //===--------------------------------------------------------------------===//
  // Cross-host fabric (fleet coordinator side)
  //===--------------------------------------------------------------------===//

  /// Receive timeout between response frames; 0 disables. The fleet
  /// coordinator sets this to FleetTimeoutMs so a hung worker turns into
  /// a transport failure instead of blocking the batch forever.
  void setRecvTimeout(unsigned Ms) { Sock.setRecvTimeout(Ms); }

  /// artifact-get probe: does the daemon hold \p Key? std::nullopt on
  /// transport or protocol failures.
  std::optional<bool> probeArtifact(const ArtifactKey &Key,
                                    std::string *Error = nullptr);

  /// artifact-put: injects \p Body under \p Key, with \p SpecJson as the
  /// daemon's decode context. Returns whether the daemon stored it (false
  /// = it already held the key); std::nullopt when the daemon rejected
  /// the body or on transport failures.
  std::optional<bool> putArtifact(const json::Value &SpecJson,
                                  const ArtifactKey &Key,
                                  const std::string &Body,
                                  std::string *Error = nullptr);

  /// shard-submit round trip: dispatches [Range.Begin, Range.end()) of
  /// the spec in \p SpecJson and blocks for the shard-result frame.
  /// Returns the manifest text (validation is the coordinator's job).
  /// On failure \p TransportFailure distinguishes a dead/hung worker
  /// (connection lost, receive timeout, garbled stream — the range was
  /// never charged an attempt) from a live worker reporting a failed
  /// range (error frame or non-done shard-result).
  std::optional<std::string> runShardRange(const json::Value &SpecJson,
                                           const ShotRange &Range,
                                           uint64_t DeadlineMs = 0,
                                           bool *TransportFailure = nullptr,
                                           std::string *Error = nullptr);

private:
  explicit DaemonClient(Socket Sock) : Sock(std::move(Sock)) {}

  /// Sends one frame and reads response frames until \p WantType (or an
  /// error frame / transport failure, which fail).
  std::optional<Frame> roundTrip(const std::string &FrameLine,
                                 const std::string &WantType,
                                 std::string *Error,
                                 const std::function<void(const Frame &)>
                                     &OnOther = nullptr);

  Socket Sock;
};

} // namespace server
} // namespace marqsim

#endif // MARQSIM_SERVER_CLIENT_H
