//===- tools/marqsim-daemon.cpp - The resident simulation daemon --------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Long-running simulation service over one SimulationService: the tiered
// artifact store and the shared thread pool stay resident across requests,
// so repeated TaskSpecs for one Hamiltonian pay a single MCFP solve
// instead of a process re-exec each. Clients speak the line-delimited JSON
// protocol (src/server/Protocol.h); `marqsim-cli --connect host:port` is
// the reference client and reproduces local output byte for byte.
//
// The same binary is the worker of the cross-host execution fabric: a
// fleet coordinator (`marqsim-cli --workers=host:port,...`) warms this
// daemon through content-addressed artifact-put frames — so it never
// performs its own MCFP solve — and dispatches shot ranges as
// shard-submit frames. No extra flags are needed for the worker role; the
// stats frame's "fabric" section accounts for the fleet traffic served.
//
//   marqsim-daemon [options]
//     --host=H              bind address (default 127.0.0.1)
//     --port=P              bind port (default 0 = ephemeral; the bound
//                           port is printed on stdout either way)
//     --port-file=FILE      also write the bound port to FILE (written
//                           atomically; lets scripts poll for readiness)
//     --workers=N           concurrently executing requests (default 1,
//                           0 = all cores); shot-level parallelism within
//                           a request is the client's --jobs
//     --max-queue=N         queued-request cap (default 64); beyond it
//                           submits are rejected with "queue-full"
//     --stream-chunk=N      shots per streamed chunk (default 1)
//     --idle-timeout-ms=T   close connections idle for T ms (default 0 =
//                           never)
//     --max-connections=N   concurrent connection cap (default 64)
//     --cache-dir=DIR       persistent artifact store (default from
//                           $MARQSIM_CACHE_DIR; empty = in-memory only)
//     --cache-limit-mb=M    in-memory artifact cache budget in MiB
//                           (default 0 = unbounded)
//
// Graceful drain: SIGTERM or SIGINT (or a client "shutdown" frame) stops
// accepting connections, finishes every admitted request, answers the
// clients still waiting, and exits 0.
//
// Exit codes: 0 clean drain, 1 usage error, 2 bind/start failure.
//
//===----------------------------------------------------------------------===//

#include "server/Daemon.h"
#include "support/CommandLine.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>

using namespace marqsim;

namespace {

server::Daemon *ActiveDaemon = nullptr;

/// Signal handlers may only touch async-signal-safe state;
/// Daemon::notifyShutdown is exactly one write(2) on a pipe.
void onSignal(int) {
  if (ActiveDaemon)
    ActiveDaemon->notifyShutdown();
}

bool getCount(const CommandLine &CL, const char *Name, int64_t Default,
              int64_t Min, int64_t &Out) {
  Out = CL.getInt(Name, Default);
  if (Out < Min) {
    std::cerr << "error: --" << Name << " must be at least " << Min << "\n";
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  if (CL.rejectUnknown({"cache-dir", "cache-limit-mb", "help", "host",
                        "idle-timeout-ms", "max-connections", "max-queue",
                        "port", "port-file", "stream-chunk", "workers"}))
    return 1;
  if (CL.getBool("help")) {
    std::cerr << "usage: marqsim-daemon [--host=H] [--port=P] "
                 "[--port-file=FILE]\n"
                 "  [--workers=N] [--max-queue=N] [--stream-chunk=N]\n"
                 "  [--idle-timeout-ms=T] [--max-connections=N]\n"
                 "  [--cache-dir=DIR] [--cache-limit-mb=M]\n";
    return 1;
  }

  server::DaemonOptions Opts;
  Opts.Host = CL.getString("host", Opts.Host);
  int64_t Port, Workers, MaxQueue, Chunk, IdleMs, MaxConns;
  if (!getCount(CL, "port", 0, 0, Port) ||
      !getCount(CL, "workers", 1, 0, Workers) ||
      !getCount(CL, "max-queue", 64, 1, MaxQueue) ||
      !getCount(CL, "stream-chunk", 1, 1, Chunk) ||
      !getCount(CL, "idle-timeout-ms", 0, 0, IdleMs) ||
      !getCount(CL, "max-connections", 64, 1, MaxConns))
    return 1;
  if (Port > 65535) {
    std::cerr << "error: --port out of range\n";
    return 1;
  }
  Opts.Port = static_cast<uint16_t>(Port);
  Opts.Scheduler.Workers = static_cast<unsigned>(Workers);
  Opts.Scheduler.MaxQueueDepth = static_cast<size_t>(MaxQueue);
  Opts.Scheduler.StreamChunkShots = static_cast<size_t>(Chunk);
  Opts.IdleTimeoutMs = static_cast<unsigned>(IdleMs);
  Opts.MaxConnections = static_cast<size_t>(MaxConns);

  ServiceOptions Service;
  if (const char *Env = std::getenv("MARQSIM_CACHE_DIR"))
    Service.CacheDir = Env;
  Service.CacheDir = CL.getString("cache-dir", Service.CacheDir);
  std::string Error;
  if (!ArtifactStore::validateCacheDir(Service.CacheDir, &Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  std::optional<size_t> LimitBytes =
      mebibytesToBytes(CL.getDouble("cache-limit-mb", 0.0));
  if (!LimitBytes) {
    std::cerr << "error: --cache-limit-mb must be a non-negative number\n";
    return 1;
  }
  Service.CacheLimitBytes = *LimitBytes;
  Opts.StoreLimitBytes = Service.CacheLimitBytes;

  SimulationService Sim(Service);
  server::Daemon Daemon(Sim, Opts);
  if (!Daemon.start(&Error)) {
    std::cerr << "error: " << Error << "\n";
    return 2;
  }

  ActiveDaemon = &Daemon;
  struct sigaction SA{};
  SA.sa_handler = onSignal;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  // A client vanishing mid-write must surface as a send error, never kill
  // the process (sendAll also passes MSG_NOSIGNAL; this covers any other
  // writer).
  signal(SIGPIPE, SIG_IGN);

  // Readiness line, flushed before serving: scripts parse the port from
  // here or from --port-file.
  std::printf("marqsim-daemon listening on %s:%u\n", Opts.Host.c_str(),
              static_cast<unsigned>(Daemon.port()));
  std::fflush(stdout);
  if (CL.has("port-file")) {
    const std::string Path = CL.getString("port-file");
    const std::string Tmp = Path + ".tmp";
    if (FILE *F = std::fopen(Tmp.c_str(), "w")) {
      std::fprintf(F, "%u\n", static_cast<unsigned>(Daemon.port()));
      std::fclose(F);
      std::rename(Tmp.c_str(), Path.c_str());
    }
  }

  int Exit = Daemon.serve();
  ActiveDaemon = nullptr;
  return Exit;
}
