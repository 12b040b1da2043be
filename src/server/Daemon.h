//===- server/Daemon.h - Resident simulation daemon -------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The accept loop of the resident simulation service: a TCP listener,
/// one handler thread per connection speaking the line-delimited JSON
/// protocol (server/Protocol.h), a BatchScheduler running admitted
/// TaskSpecs on its own executor threads, and a graceful drain:
///
///   SIGTERM/SIGINT -> notifyShutdown() (async-signal-safe: one byte
///   down a pipe) -> the accept loop stops admitting connections -> the
///   scheduler finishes every admitted request -> idle connections are
///   unblocked via read-side shutdown -> handler threads join -> serve()
///   returns 0.
///
/// Result transport is the PR 3 artifact path: a result frame carries
/// the run as a serialized ShardManifest plus the QASM text, so clients
/// rebuild a bit-identical TaskResult through ShardCoordinator::merge.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SERVER_DAEMON_H
#define MARQSIM_SERVER_DAEMON_H

#include "server/Scheduler.h"
#include "support/Socket.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace marqsim {
namespace server {

struct DaemonOptions {
  /// Bind address (numeric IPv4 or "localhost").
  std::string Host = "127.0.0.1";

  /// Bind port; 0 picks an ephemeral port (read it back via port()).
  uint16_t Port = 0;

  /// Concurrent connections; further accepts are answered with a "busy"
  /// error frame and closed.
  size_t MaxConnections = 64;

  /// Per-connection receive timeout between frames; an idle connection
  /// past this is closed. 0 disables (connections may idle forever).
  unsigned IdleTimeoutMs = 0;

  /// Reported in stats frames (the store's configured memory budget —
  /// the daemon cannot read it back out of the service).
  size_t StoreLimitBytes = 0;

  SchedulerOptions Scheduler;
};

/// The resident daemon. Owns the listener, the connection threads, and
/// the scheduler; borrows the SimulationService (whose caches are the
/// entire point of staying resident).
class Daemon {
public:
  Daemon(SimulationService &Service, DaemonOptions Opts = {});
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds, listens, and starts the accept thread. Returns false with
  /// \p Error on bind failures.
  bool start(std::string *Error = nullptr);

  /// The bound port (after start); useful with Port = 0.
  uint16_t port() const;

  /// Requests shutdown. Async-signal-safe: callable directly from a
  /// SIGTERM/SIGINT handler.
  void notifyShutdown();

  /// Blocks until shutdown is requested, then drains: joins the
  /// acceptor, lets the scheduler finish every admitted request, closes
  /// idle connections, joins handlers. Returns 0 on a clean drain.
  int serve();

  /// start() + serve() convenience used by the binary.
  int run(std::string *Error = nullptr);

  /// stats-frame body, format "marqsim-server-stats-v3": "server" +
  /// "cache" + "store" + "kernels" + "fabric".
  json::Value statsJson() const;

private:
  struct Connection;

  /// Cross-host fabric accounting (serialized by Protocol.h's
  /// fabricStatsJson into the stats frame's "fabric" section). Atomics:
  /// every connection handler bumps these concurrently.
  struct FabricCounters {
    std::atomic<size_t> ShardSubmits{0};
    std::atomic<size_t> ShardResults{0};
    std::atomic<size_t> ArtifactGets{0};
    std::atomic<size_t> ArtifactPuts{0};
    std::atomic<size_t> ArtifactHits{0};
    std::atomic<size_t> ArtifactMisses{0};
    std::atomic<size_t> ArtifactBytesIn{0};
  };

  void acceptLoop();
  void handleConnection(const std::shared_ptr<Connection> &Conn);
  void reapFinishedLocked();

  SimulationService &Service;
  const DaemonOptions Opts;
  BatchScheduler Sched;

  ListenSocket Listener;
  std::thread Acceptor;
  int WakePipe[2] = {-1, -1};
  std::atomic<bool> ShutdownRequested{false};
  std::atomic<bool> DrainingFlag{false};

  mutable std::mutex ConnMutex;
  std::vector<std::shared_ptr<Connection>> Connections;
  uint64_t NextConnId = 1;

  FabricCounters Fabric;
};

} // namespace server
} // namespace marqsim

#endif // MARQSIM_SERVER_DAEMON_H
