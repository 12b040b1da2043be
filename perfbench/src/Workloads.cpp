//===- perfbench/src/Workloads.cpp - The benchmark workloads --------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every workload has a set-up phase (a fresh SimulationService prewarms the
// workload's spec; the fleet workload also starts its loopback daemons) and
// a steady phase (sequential requests on the warm service, one closed-loop
// client, each request with its own shot seed derived from --seed).
//
// The timed run reports what a user sees. The traced run replays every
// request through the public entry points in SimulationService::run()'s
// order, with a span around each call, and derives the per-layer metrics
// from those spans. Nothing inside src/ is instrumented.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Checks.h"
#include "Stats.h"
#include "Trace.h"

#include "core/CNOTCountOracle.h"
#include "core/TransitionBuilders.h"
#include "hamgen/Registry.h"
#include "server/Client.h"
#include "server/Daemon.h"
#include "shard/ShardCoordinator.h"
#include "sim/Evolution.h"
#include "store/ArtifactKey.h"
#include "store/Codecs.h"
#include "support/RNG.h"
#include "support/Serial.h"
#include "support/Timer.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <thread>

using namespace marqsim;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Workload definitions
//===----------------------------------------------------------------------===//

struct WorkloadDef {
  const char *Name;
  const char *Model; ///< Table 1 registry name
  const char *Mix;   ///< ChannelMix preset
  size_t Shots;      ///< per request
  unsigned Jobs;     ///< per request
  size_t Columns;    ///< fidelity columns; 0 = no fidelity
  unsigned Daemons;  ///< loopback fleet workers; 0 = straight to the service
  unsigned Shards;   ///< shot ranges per fleet request
  size_t SetupReps;  ///< cold set-ups per timed run; setup_s is their median
};

constexpr double Epsilon = 0.05;
constexpr unsigned PerturbRounds = 8;

// Set-up repetitions: at least 3, as many as fit in about 20 s of set-up
// on the reference host, so a whole run stays under a minute.
const WorkloadDef Defs[] = {
    {"compile-lih", "LiH", "gc-rp", 32, 3, 0, 0, 0, 4},
    {"fidelity-oh", "OH-", "gc", 8, 3, 8, 0, 0, 3},
    {"fleet-na", "Na+", "gc", 16, 1, 4, 2, 4, 16},
};

/// The fidelity sample of a workload without columns (compile-lih):
/// evaluated outside the timed region on this many shots of one request,
/// against this many target columns.
constexpr size_t FidelitySampleShots = 2;
constexpr size_t FidelitySampleColumns = 1;

/// splitmix64 finalizer: the per-request shot seeds and the check sample
/// are pure functions of the workload seed.
uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

uint64_t requestSeed(uint64_t WorkloadSeed, uint64_t Index) {
  return mix64(mix64(WorkloadSeed) + Index);
}

TaskSpec makeSpec(const WorkloadDef &W, const Hamiltonian &Raw, double T) {
  TaskSpec S;
  S.Source = HamiltonianSource::fromHamiltonian(Raw);
  S.Mix = *ChannelMix::preset(W.Mix);
  S.PerturbRounds = PerturbRounds;
  S.Time = T;
  S.Epsilon = Epsilon;
  S.Shots = W.Shots;
  S.Jobs = W.Jobs;
  S.EvalJobs = 1;
  S.Evaluate.FidelityColumns = W.Columns;
  return S;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string format(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));
std::string format(const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Environment: the warm state the steady phase runs against
//===----------------------------------------------------------------------===//

/// An in-process loopback fleet worker: its own service and a daemon with
/// one scheduler worker, serving on an ephemeral port.
struct LoopbackDaemon {
  SimulationService Service;
  server::Daemon D;
  std::thread Server;
  bool Started = false;

  LoopbackDaemon() : D(Service, options()) {
    Started = D.start(&Error);
    if (Started)
      Server = std::thread([this] { D.serve(); });
  }
  ~LoopbackDaemon() {
    if (Server.joinable()) {
      D.notifyShutdown();
      Server.join();
    }
  }
  LoopbackDaemon(const LoopbackDaemon &) = delete;
  LoopbackDaemon &operator=(const LoopbackDaemon &) = delete;

  static server::DaemonOptions options() {
    server::DaemonOptions O;
    O.Scheduler.Workers = 1;
    return O;
  }
  std::string hostPort() const {
    return "127.0.0.1:" + std::to_string(D.port());
  }
  std::string Error;
};

struct Env {
  const WorkloadDef *W = nullptr;
  Hamiltonian H; ///< canonical form, exactly as the service compiles it
  TaskSpec Spec;
  std::unique_ptr<SimulationService> Service;
  std::vector<std::unique_ptr<LoopbackDaemon>> Daemons;
  std::vector<std::string> HostPorts;
};

bool startDaemons(Env &E, std::string *Error) {
  for (unsigned I = 0; I < E.W->Daemons; ++I) {
    auto D = std::make_unique<LoopbackDaemon>();
    if (!D->Started)
      return detail::fail(Error, "daemon start failed: " + D->Error);
    E.HostPorts.push_back(D->hostPort());
    E.Daemons.push_back(std::move(D));
  }
  return true;
}

/// Pins the calling thread to the K-th CPU (mod N) of its affinity mask
/// while alive, then restores the mask. The vCPUs of a shared VM can run
/// at different speeds (their host siblings carry other load); rotating a
/// single-threaded phase over them makes every run sample all of them
/// alike, instead of wherever the scheduler happened to place the thread.
class PinnedToCpu {
public:
  explicit PinnedToCpu(size_t K) {
    CPU_ZERO(&Saved);
    if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0 ||
        CPU_COUNT(&Saved) == 0)
      return;
    size_t Want = K % static_cast<size_t>(CPU_COUNT(&Saved));
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Saved) && Want-- == 0) {
        cpu_set_t One;
        CPU_ZERO(&One);
        CPU_SET(C, &One);
        if (sched_setaffinity(0, sizeof(One), &One) == 0)
          Cpu = C;
        break;
      }
  }
  ~PinnedToCpu() {
    if (Cpu >= 0)
      sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  PinnedToCpu(const PinnedToCpu &) = delete;
  PinnedToCpu &operator=(const PinnedToCpu &) = delete;

  /// The CPU the thread runs on, or -1 when pinning failed.
  int cpu() const { return Cpu; }

private:
  cpu_set_t Saved;
  int Cpu = -1;
};

/// The timed set-up: generate the Hamiltonian, prewarm a fresh service
/// (pinned to CPU \p Slot mod N; nothing there starts a thread), start the
/// fleet (unpinned, so its threads inherit the full mask).
std::unique_ptr<Env> setUp(const WorkloadDef &W, size_t Slot, int *Cpu,
                           std::string *Error) {
  auto E = std::make_unique<Env>();
  E->W = &W;
  {
    PinnedToCpu Pin(Slot);
    *Cpu = Pin.cpu();
    BenchmarkSpec B = *findBenchmark(W.Model);
    Hamiltonian Raw = makeBenchmark(B);
    E->Spec = makeSpec(W, Raw, B.Time);
    E->H = SimulationService::prepare(Raw);
    E->Service = std::make_unique<SimulationService>();
    if (!E->Service->prewarm(E->Spec, Error))
      return nullptr;
  }
  if (!startDaemons(*E, Error))
    return nullptr;
  return E;
}

struct Outcome {
  std::optional<TaskResult> Result;
  ShardReport Report;
  std::string Error;
};

/// One steady-phase request: a service run, or a fleet batch through the
/// shard coordinator into a fresh, empty work directory.
Outcome request(Env &E, const TaskSpec &Spec, const std::string &WorkDir) {
  Outcome O;
  if (E.Daemons.empty()) {
    O.Result = E.Service->run(Spec, &O.Error);
    return O;
  }
  ShardOptions S;
  S.ShardCount = E.W->Shards;
  S.WorkDir = WorkDir;
  S.Workers = E.HostPorts;
  S.SharedService = E.Service.get();
  O.Result = ShardCoordinator(S).run(Spec, &O.Error, &O.Report);
  return O;
}

size_t redispatched(const ShardReport &R) {
  size_t N = 0;
  for (const FleetWorkerStats &WS : R.Fleet.Workers)
    N += WS.RangesRedispatched;
  return N;
}

//===----------------------------------------------------------------------===//
// Checks shared by both runs
//===----------------------------------------------------------------------===//

/// Records one check: counted in the failure tally, described in a line.
void check(FailureCounter &F, RunReport &R, bool Ok, const std::string &What) {
  F.record(Ok);
  R.Lines.push_back(std::string("check ") + (Ok ? "ok     " : "FAILED ") +
                    What);
}

/// Theorem 4.1 on the service's transition matrix. Rows must sum to 1
/// within 1e-12. Stationarity holds only up to the MCFP capacity quantum
/// (capacities are round(pi_i * ProbScale)), so its tolerance is that
/// quantum with a small factor on top of 1e-12.
void checkMatrix(Env &E, FailureCounter &F, RunReport &R) {
  std::string Error;
  std::shared_ptr<const HTTGraph> G = E.Service->graphFor(E.Spec, &Error);
  if (!G) {
    check(F, R, false, "theorem-4.1: graphFor failed: " + Error);
    return;
  }
  std::vector<double> Coeffs;
  for (const PauliTerm &T : G->hamiltonian().terms())
    Coeffs.push_back(T.Coeff);
  const double StatTol =
      1e-12 + 4.0 / static_cast<double>(E.Spec.Flow.ProbScale);
  Theorem41Report T = checkTheorem41(G->transitionMatrix().data(),
                                     G->numStates(), Coeffs, 1e-12, StatTol);
  check(F, R, T.Ok,
        format("theorem-4.1: max |row sum - 1| = %.3g (tol 1e-12), "
               "max |(pi P - pi)_j| = %.3g (tol %.3g), min entry %.3g, "
               "strongly connected %s",
               T.MaxRowDeviation, T.MaxStationaryDeviation, StatTol,
               T.MinEntry, T.StronglyConnected ? "yes" : "no"));
}

/// Columns \p Columns of exactUnitary(H, T), the dense reference of the
/// exact-target check. It depends only on (H, T, Columns), so it is kept
/// under \p CacheDir in the store's fidelity-body format and only the
/// first run in a build tree pays for the expm.
std::vector<CVector> referenceColumns(const Hamiltonian &H, double T,
                                      const std::vector<uint64_t> &Columns,
                                      const std::string &CacheDir) {
  const std::string Path =
      format("%s/reference-%016" PRIx64 "-%016" PRIx64 ".fid",
             CacheDir.c_str(), H.fingerprint(), serial::doubleBits(T));
  if (std::ifstream In{Path}) {
    std::string Body((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    std::optional<FidelityEvaluator> Cached =
        store::decodeFidelityBody(H.numQubits(), Columns.size(), Body);
    if (Cached && Cached->columns() == Columns)
      return Cached->targets();
  }
  Matrix U = exactUnitary(H, T);
  std::vector<CVector> Ref;
  for (uint64_t X : Columns) {
    CVector C(U.rows());
    for (size_t B = 0; B < U.rows(); ++B)
      C[B] = U(B, X);
    Ref.push_back(std::move(C));
  }
  std::error_code EC;
  fs::create_directories(CacheDir, EC);
  std::ofstream(Path) << store::encodeFidelityBody(
      FidelityEvaluator(H.numQubits(), Columns, Ref));
  return Ref;
}

/// The service's exact targets e^{iHt}|x> against columns of an
/// independent dense reference (exactUnitary, via linalg/Expm).
void checkTargets(Env &E, const std::string &CacheDir, FailureCounter &F,
                  RunReport &R) {
  std::string Error;
  std::optional<std::vector<TaskArtifact>> Artifacts =
      E.Service->exportArtifacts(E.Spec, &Error);
  const TaskArtifact *Fid = nullptr;
  if (Artifacts)
    for (const TaskArtifact &A : *Artifacts)
      if (A.Key.Type == ArtifactType::FidelityColumns)
        Fid = &A;
  if (!Fid) {
    check(F, R, false, "exact-targets: no fidelity artifact: " + Error);
    return;
  }
  std::optional<FidelityEvaluator> Eval = store::decodeFidelityBody(
      E.H.numQubits(), E.Spec.Evaluate.FidelityColumns, Fid->Body);
  if (!Eval) {
    check(F, R, false, "exact-targets: fidelity artifact does not decode");
    return;
  }
  Timer T;
  double Dev = maxDeviation(
      referenceColumns(E.H, E.Spec.Time, Eval->columns(), CacheDir),
      Eval->targets());
  check(F, R, Dev <= 1e-10,
        format("exact-targets: %zu columns, max |target - expm column| = "
               "%.3g (tol 1e-10; reference took %.1f s)",
               Eval->numColumns(), Dev, T.seconds()));
}

/// Indices of the requests the expensive checks re-run: a seeded sample.
std::vector<size_t> checkSample(uint64_t Seed, size_t Requests, size_t Want) {
  std::vector<size_t> Picks;
  RNG Rng(mix64(Seed ^ 0xC4EC4ULL));
  while (Picks.size() < std::min(Want, Requests)) {
    size_t I = static_cast<size_t>(Rng.uniformInt(Requests));
    if (std::find(Picks.begin(), Picks.end(), I) == Picks.end())
      Picks.push_back(I);
  }
  return Picks;
}

//===----------------------------------------------------------------------===//
// Timed run
//===----------------------------------------------------------------------===//

struct RequestRecord {
  uint64_t Seed = 0;
  uint64_t Hash = 0;
  double CNOTs = 0.0; ///< mean per shot
  std::vector<double> Fidelities;
};

bool runTimed(const WorkloadDef &W, const RunOptions &O,
              const std::string &RunDir, RunReport &R, std::string *Error) {
  FailureCounter F;

  // Set-ups and the steady phase alternate: W.SetupReps cold set-ups, each
  // followed by one slice of the steady phase on the environment it just
  // warmed. Both kinds of sample so spread over the whole run, and a slow
  // spell on the host touches few of them.
  std::vector<double> SetupS;
  std::string SetupList;
  std::unique_ptr<Env> E;
  std::vector<double> LatMs;
  std::vector<RequestRecord> Recs;
  size_t Shots = 0;
  double CNOTSum = 0.0, FidSum = 0.0, SteadyS = 0.0;
  size_t FidCount = 0, Redispatched = 0;
  uint64_t I = 0;
  for (size_t Slice = 0; Slice < W.SetupReps; ++Slice) {
    E.reset();
    int Cpu = -1;
    Timer SetupT;
    // Starting the rotation at the seed spreads every CPU evenly over runs
    // even when the rep count is not a multiple of the CPU count.
    E = setUp(W, static_cast<size_t>(O.Seed) + Slice, &Cpu, Error);
    if (!E)
      return false;
    SetupS.push_back(SetupT.seconds());
    SetupList += format(" %.3f@cpu%d", SetupS.back(), Cpu);

    // One slice of the steady phase: one closed-loop client, sequential
    // requests, request I seeded by requestSeed(seed, I).
    const double SliceS = O.Seconds / static_cast<double>(W.SetupReps);
    Timer Wall;
    for (; Wall.seconds() < SliceS; ++I) {
      TaskSpec Spec = E->Spec;
      Spec.Seed = requestSeed(O.Seed, I);
      const std::string Dir = RunDir + "/req-" + std::to_string(I);
      Timer T;
      Outcome Out = request(*E, Spec, Dir);
      LatMs.push_back(T.millis());
      if (!E->Daemons.empty())
        fs::remove_all(Dir);
      Redispatched += redispatched(Out.Report);
      F.record(Out.Result.has_value());
      if (!Out.Result) {
        R.Lines.push_back("request " + std::to_string(I) +
                          " failed: " + Out.Error);
        Recs.push_back({Spec.Seed, 0, 0.0, {}});
        continue;
      }
      const TaskResult &Res = *Out.Result;
      Shots += Res.Batch.NumShots;
      CNOTSum +=
          Res.Batch.CNOTs.Mean * static_cast<double>(Res.Batch.NumShots);
      for (double V : Res.ShotFidelities) {
        FidSum += V;
        ++FidCount;
      }
      Recs.push_back({Spec.Seed, Res.Batch.batchHash(),
                      Res.Batch.CNOTs.Mean, Res.ShotFidelities});
    }
    SteadyS += Wall.seconds();
  }
  const double RssMb = peakRssMb();

  // Checks, all outside the timed regions.
  const std::vector<size_t> Picks = checkSample(O.Seed, Recs.size(), 2);
  double Fidelity = FidCount ? FidSum / static_cast<double>(FidCount) : 0.0;
  for (size_t I : Picks) {
    TaskSpec Spec = E->Spec;
    Spec.Seed = Recs[I].Seed;
    // Fleet results must equal a local run; local results must not depend
    // on the worker count.
    const bool Fleet = !E->Daemons.empty();
    if (!Fleet)
      Spec.Jobs = 1;
    std::optional<TaskResult> Ref = E->Service->run(Spec);
    check(F, R,
          Ref && Ref->Batch.batchHash() == Recs[I].Hash &&
              sameBits(Ref->ShotFidelities, Recs[I].Fidelities),
          format("%s: request %zu hash %016" PRIx64 " and %zu fidelity "
                 "bit patterns equal a %s run",
                 Fleet ? "fleet-merge" : "batch-hash", I, Recs[I].Hash,
                 Recs[I].Fidelities.size(),
                 Fleet ? "local single-process" : "Jobs=1"));
  }
  if (!E->Daemons.empty())
    check(F, R, Redispatched == 0,
          format("fleet: %zu ranges re-dispatched (want 0)", Redispatched));
  checkMatrix(*E, F, R);
  if (W.Columns > 0)
    checkTargets(*E, O.WorkDir + "/reference", F, R);

  if (!Picks.empty()) {
    // The paper's cost claim: the workload's mix emits fewer CNOTs than
    // pure qDrift at the same shot seeds.
    double MixCNOTs = 0.0, QDCNOTs = 0.0;
    bool Ok = true;
    for (size_t I : Picks) {
      TaskSpec Spec = E->Spec;
      Spec.Seed = Recs[I].Seed;
      Spec.Mix = *ChannelMix::preset("baseline");
      Spec.Evaluate.FidelityColumns = 0;
      std::optional<TaskResult> QD = E->Service->run(Spec);
      Ok = Ok && QD && Recs[I].Hash != 0;
      MixCNOTs += Recs[I].CNOTs;
      QDCNOTs += QD ? QD->Batch.CNOTs.Mean : 0.0;
    }
    check(F, R, Ok && MixCNOTs < QDCNOTs,
          format("cnots: %s %.1f < qDrift %.1f per shot at the same seeds",
                 W.Mix, MixCNOTs / Picks.size(), QDCNOTs / Picks.size()));
  }
  if (W.Columns == 0 && !Picks.empty()) {
    // A workload compiled without fidelity still reports its accuracy,
    // sampled here: the first shots of one request against one exact
    // column. The sample's service persists its artifacts under the work
    // directory (the store's disk tier), so only the first run in a build
    // tree pays for the exact column; later runs reload it bit for bit.
    TaskSpec Spec = E->Spec;
    Spec.Seed = Recs[Picks[0]].Seed;
    Spec.Shots = FidelitySampleShots;
    Spec.Evaluate.FidelityColumns = FidelitySampleColumns;
    ServiceOptions SampleOptions;
    SampleOptions.CacheDir = O.WorkDir + "/fidelity-sample-store";
    SimulationService Sampler(SampleOptions);
    Timer T;
    std::optional<TaskResult> Sample = Sampler.run(Spec);
    Fidelity = Sample ? Sample->Fidelity.Mean : 0.0;
    R.Lines.push_back(format("fidelity sample: %zu shots x %zu column, "
                             "%.1f s (untimed)",
                             FidelitySampleShots, FidelitySampleColumns,
                             T.seconds()));
  }
  check(F, R, Fidelity >= 1.0 - Epsilon,
        format("fidelity: mean %.6f >= 1 - eps = %.2f", Fidelity,
               1.0 - Epsilon));

  TailStat Tail = tailPercentile(LatMs);
  std::array<double, 3> Q = quartiles(LatMs);
  R.Lines.push_back(format("requests %zu, shots %zu, steady %.3f s; "
                           "latency quartiles %.1f/%.1f/%.1f ms; "
                           "task_ms_tail is p%u of %zu samples (%zu beyond)",
                           LatMs.size(), Shots, SteadyS, Q[0], Q[1], Q[2],
                           Tail.Percentile, Tail.Samples, Tail.Beyond));
  R.Lines.push_back(format("batch hash of request 0: %016" PRIx64,
                           Recs.empty() ? 0 : Recs[0].Hash));
  R.Lines.push_back("setup_s samples:" + SetupList);

  R.Metrics = {
      {"setup_s", median(SetupS), "s"},
      {"shots_per_s", SteadyS > 0 ? Shots / SteadyS : 0.0, "1/s"},
      {"task_ms_p50", median(LatMs), "ms"},
      {"task_ms_tail", Tail.Value, "ms"},
      {"cnots_per_shot", Shots ? CNOTSum / Shots : 0.0, "count"},
      {"fidelity_mean", Fidelity, "1"},
      {"peak_rss_mb", RssMb, "MB"},
      {"success_frac", F.successFrac(), "1"},
  };
  R.Attempted = F.attempted();
  R.Failed = F.failed();
  return true;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// Wraps the service's sampling strategy so the Markov walk of each shot is
/// a span; emission is the interval from the walk's end to the engine's
/// per-shot hook (materializePlan plus the shot summary's sequence hash).
class TracedStrategy final : public ScheduleStrategy {
public:
  TracedStrategy(std::shared_ptr<const ScheduleStrategy> Inner, Tracer &Tr,
                 uint64_t Parent, uint64_t Request)
      : Inner(std::move(Inner)), Tr(Tr), Parent(Parent), Request(Request) {}

  std::string name() const override { return Inner->name(); }
  bool isDeterministic() const override { return Inner->isDeterministic(); }
  const Hamiltonian &hamiltonian() const override {
    return Inner->hamiltonian();
  }
  ShotPlan produce(ShotContext &Ctx) const override {
    ShotPlan P;
    {
      Scope S(Tr, "markov.walk", Parent, Request);
      P = Inner->produce(Ctx);
    }
    WalkEnd = Tr.now();
    return P;
  }
  /// Closes this thread's emission span; call first thing in the hook.
  void closeEmit() const {
    Tr.close(Tr.open(), "core.emit", Parent, Request, WalkEnd);
  }

private:
  std::shared_ptr<const ScheduleStrategy> Inner;
  Tracer &Tr;
  uint64_t Parent, Request;
  static thread_local double WalkEnd;
};
thread_local double TracedStrategy::WalkEnd = 0.0;

/// Per-shot facts the traced replay collects.
struct ShotTally {
  size_t Shots = 0;
  size_t Samples = 0;
  size_t Rotations = 0;
  size_t CancelledCNOTs = 0;
  size_t EvaluatedRotations = 0;
};

/// The traced environment: the service warmed from artifacts the benchmark
/// built itself, layer by layer, plus those artifacts for the replays.
struct TracedEnv {
  std::unique_ptr<Env> E;
  std::shared_ptr<const SamplingStrategy> Base;
  std::shared_ptr<const FidelityEvaluator> Eval;
  size_t XMaskGroups = 0;
  size_t Solves = 0;
};

/// The set-up decomposed: each step of prewarm() called through its public
/// function under its own span, then the artifacts handed to a fresh
/// service through the store codecs (importArtifact).
std::optional<TracedEnv> tracedSetUp(const WorkloadDef &W, Tracer &Tr,
                                     FailureCounter &F, RunReport &R,
                                     std::string *Error) {
  TracedEnv TE;
  TE.E = std::make_unique<Env>();
  Env &E = *TE.E;
  E.W = &W;
  Scope Root(Tr, "setup", 0, 0);
  const uint64_t P = Root.id();

  BenchmarkSpec B = *findBenchmark(W.Model);
  Hamiltonian Raw;
  {
    Scope S(Tr, "hamgen.build", P, 0);
    Raw = makeBenchmark(B);
  }
  E.Spec = makeSpec(W, Raw, B.Time);
  uint64_t Fingerprint;
  {
    Scope S(Tr, "pauli.prepare", P, 0);
    E.H = SimulationService::prepare(Raw);
    Fingerprint = E.H.fingerprint();
  }
  std::set<uint64_t> XMasks;
  for (const PauliTerm &T : E.H.terms())
    XMasks.insert(T.String.xMask());
  TE.XMaskGroups = XMasks.size();

  ChannelMix Mix = E.Spec.Mix;
  Mix.normalize();
  {
    Scope S(Tr, "core.cost_table", P, 0);
    std::vector<std::vector<unsigned>> Cost = cnotCostTable(E.H);
    check(F, R, Cost.size() == E.H.numTerms(),
          "traced set-up: one cost-table row per term");
  }
  // The same parts, weights, and order as the service's combinedMatrix.
  TransitionMatrix Pqd, Pgc, Prp;
  if (Mix.WGc > 0.0) {
    Scope S(Tr, "flow.gc_solve", P, 0);
    Pgc = buildGateCancellation(E.H, E.Spec.Flow);
    TE.Solves += 1;
  }
  if (Mix.WRp > 0.0) {
    Scope S(Tr, "flow.rp_solve", P, 0);
    RNG PerturbRng(E.Spec.PerturbSeed);
    Prp = buildRandomPerturbation(E.H, E.Spec.PerturbRounds, PerturbRng,
                                  E.Spec.Flow);
    TE.Solves += E.Spec.PerturbRounds;
  }
  TransitionMatrix Combined;
  {
    Scope S(Tr, "markov.combine", P, 0);
    std::vector<const TransitionMatrix *> Parts;
    std::vector<double> Weights;
    if (Mix.WQd > 0.0) {
      Pqd = buildQDrift(E.H);
      Parts.push_back(&Pqd);
      Weights.push_back(Mix.WQd);
    }
    if (Mix.WGc > 0.0) {
      Parts.push_back(&Pgc);
      Weights.push_back(Mix.WGc);
    }
    if (Mix.WRp > 0.0) {
      Parts.push_back(&Prp);
      Weights.push_back(Mix.WRp);
    }
    Combined = Parts.size() == 1 ? *Parts.front()
                                 : TransitionMatrix::combine(Parts, Weights);
  }
  {
    Scope S(Tr, "markov.graph_build", P, 0);
    auto G = std::make_shared<const HTTGraph>(E.H, Combined);
    check(F, R, G->isValidForCompilation(),
          "traced set-up: combined matrix passes the library's Theorem 4.1 "
          "validation");
    TE.Base = std::make_shared<const SamplingStrategy>(G, E.Spec.Time,
                                                       E.Spec.Epsilon);
  }
  if (W.Columns > 0) {
    Scope S(Tr, "sim.targets", P, 0);
    TE.Eval = std::make_shared<const FidelityEvaluator>(
        E.H, E.Spec.Time, W.Columns, E.Spec.Evaluate.ColumnSeed);
  }

  std::vector<TaskArtifact> Bodies;
  {
    Scope S(Tr, "store.encode", P, 0);
    TaskArtifact Bundle;
    Bundle.Key = store::aliasBundleKey(Fingerprint, Mix.WQd, Mix.WGc, Mix.WRp,
                                       E.Spec.Flow, E.Spec.PerturbRounds,
                                       E.Spec.PerturbSeed, E.Spec.UseCDF);
    Bundle.Body = store::encodeMatrixBody(store::AliasMagic, Combined);
    Bodies.push_back(std::move(Bundle));
    if (TE.Eval) {
      TaskArtifact Fid;
      Fid.Key = store::fidelityColumnsKey(Fingerprint, E.Spec.Time,
                                          W.Columns,
                                          E.Spec.Evaluate.ColumnSeed);
      Fid.Body = store::encodeFidelityBody(*TE.Eval);
      Bodies.push_back(std::move(Fid));
    }
  }
  {
    Scope S(Tr, "store.decode", P, 0);
    std::optional<TransitionMatrix> Back = store::decodeMatrixBody(
        store::AliasMagic, E.H.numTerms(), Bodies[0].Body);
    bool Ok = Back && Back->data() == Combined.data();
    if (TE.Eval) {
      std::optional<FidelityEvaluator> FidBack = store::decodeFidelityBody(
          E.H.numQubits(), W.Columns, Bodies[1].Body);
      Ok = Ok && FidBack && FidBack->columns() == TE.Eval->columns();
    }
    check(F, R, Ok, "store codecs: bundle and fidelity bodies round-trip");
  }
  E.Service = std::make_unique<SimulationService>();
  {
    Scope S(Tr, "service.import", P, 0);
    for (const TaskArtifact &A : Bodies) {
      std::string ImportError;
      std::optional<ArtifactImport> In =
          E.Service->importArtifact(E.Spec, A.Key, A.Body, &ImportError);
      check(F, R, In && *In == ArtifactImport::Inserted,
            "service import of " + A.Key.Id.substr(0, 24) + "...: " +
                (In ? "inserted" : ImportError));
    }
  }
  {
    Scope S(Tr, "service.prewarm", P, 0);
    if (!E.Service->prewarm(E.Spec, Error))
      return std::nullopt;
    check(F, R, E.Service->storeStats().Computes == 0,
          "traced set-up: prewarm after import computes nothing");
  }
  if (W.Daemons > 0) {
    Scope S(Tr, "server.start", P, 0);
    if (!startDaemons(E, Error))
      return std::nullopt;
  }
  return std::optional<TracedEnv>(std::move(TE));
}

/// Replays one request's compile path with Jobs = 1 through the public
/// entry points, in run()'s order: resolve the Hamiltonian, look the
/// bundle up, re-target it, then walk, emit and evaluate each shot.
uint64_t replayCore(Tracer &Tr, uint64_t Parent, uint64_t Req,
                    const TracedEnv &TE, const TaskSpec &Spec,
                    ShotTally *Tally) {
  Env &E = *TE.E;
  std::shared_ptr<const SamplingStrategy> Strategy;
  {
    Scope S(Tr, "pauli.prepare", Parent, Req);
    std::optional<Hamiltonian> H =
        SimulationService::resolveHamiltonian(Spec.Source);
    if (!H || H->fingerprint() != E.H.fingerprint())
      return 0;
  }
  {
    Scope S(Tr, "service.resolve", Parent, Req);
    if (!E.Service->graphFor(Spec))
      return 0;
    Strategy = TE.Base->retargeted(Spec.Time, Spec.Epsilon);
  }
  Scope Batch(Tr, "core.batch1", Parent, Req);
  auto Traced =
      std::make_shared<const TracedStrategy>(Strategy, Tr, Batch.id(), Req);
  BatchRequest BR;
  BR.Strategy = Traced;
  BR.NumShots = Spec.Shots;
  BR.Jobs = 1;
  BR.Seed = Spec.Seed;
  BR.Opts = Spec.Lowering;
  const FidelityEvaluator *Eval = TE.Eval.get();
  BR.PerShot = [&](size_t, const CompilationResult &Res) {
    Traced->closeEmit();
    if (Eval) {
      Scope S(Tr, "sim.eval", Batch.id(), Req);
      Eval->fidelity(Res.Schedule, 1);
    }
    if (Tally) {
      ++Tally->Shots;
      Tally->Samples += Res.NumSamples;
      Tally->Rotations += Res.Schedule.size();
      Tally->CancelledCNOTs += Res.Stats.CancelledCNOTs;
      if (Eval)
        Tally->EvaluatedRotations += Res.Schedule.size();
    }
  };
  return CompilerEngine().compileBatch(BR).batchHash();
}

/// Replays one fleet request with DaemonClient calls in runFleet's order:
/// export the artifacts, connect, probe/push, one shard-submit round trip
/// per range, parse and persist each manifest, merge. \p Lanes = 1 runs
/// the workers one after another (spans nest on one thread), otherwise
/// one thread per worker as the coordinator does. Returns the merged batch
/// hash, 0 on failure.
uint64_t replayFleet(Tracer &Tr, uint64_t Parent, uint64_t Req,
                     const TracedEnv &TE, const TaskSpec &Spec,
                     unsigned Lanes, const std::string &WorkDir) {
  Env &E = *TE.E;
  std::optional<std::vector<TaskArtifact>> Artifacts;
  std::optional<json::Value> SpecJson;
  {
    Scope S(Tr, "service.export", Parent, Req);
    if (!E.Service->prewarm(Spec))
      return 0;
    Artifacts = E.Service->exportArtifacts(Spec);
    SpecJson = Spec.toJson();
  }
  if (!Artifacts || !SpecJson)
    return 0;
  fs::create_directories(WorkDir);
  const ShardPlan Plan = ShardPlan::split(Spec.Shots, E.W->Shards);
  std::vector<std::optional<ShardManifest>> Got(Plan.shardCount());
  std::atomic<bool> Ok{true};
  auto Worker = [&](size_t Wi) {
    std::optional<server::DaemonClient> Client;
    {
      Scope S(Tr, "server.connect", Parent, Req);
      Client = server::DaemonClient::connectTo(E.HostPorts[Wi]);
    }
    if (!Client) {
      Ok = false;
      return;
    }
    {
      Scope S(Tr, "server.artifact", Parent, Req);
      for (const TaskArtifact &A : *Artifacts) {
        std::optional<bool> Present = Client->probeArtifact(A.Key);
        if (Present && !*Present)
          Present = Client->putArtifact(*SpecJson, A.Key, A.Body);
        if (!Present)
          Ok = false;
      }
    }
    for (size_t I = Wi; I < Plan.shardCount(); I += E.HostPorts.size()) {
      std::optional<std::string> Text;
      {
        Scope S(Tr, "server.shard_rtt", Parent, Req);
        Text = Client->runShardRange(*SpecJson, Plan.Ranges[I]);
      }
      if (!Text) {
        Ok = false;
        return;
      }
      {
        Scope S(Tr, "shard.manifest_parse", Parent, Req);
        Got[I] = ShardManifest::parse(*Text);
      }
      if (!Got[I]) {
        Ok = false;
        return;
      }
      Scope S(Tr, "shard.manifest_write", Parent, Req);
      Got[I]->writeFile(ShardCoordinator::manifestPath(WorkDir, I));
    }
  };
  if (Lanes <= 1) {
    for (size_t Wi = 0; Wi < E.HostPorts.size(); ++Wi)
      Worker(Wi);
  } else {
    std::vector<std::thread> Threads;
    for (size_t Wi = 0; Wi < E.HostPorts.size(); ++Wi)
      Threads.emplace_back(Worker, Wi);
    for (std::thread &T : Threads)
      T.join();
  }
  fs::remove_all(WorkDir);
  if (!Ok)
    return 0;
  std::vector<ShardManifest> Manifests;
  {
    // The worker-side serialization of each manifest, replayed here: the
    // daemon's own call is not reachable from outside.
    Scope S(Tr, "shard.manifest_serialize", Parent, Req);
    size_t Bytes = 0;
    for (std::optional<ShardManifest> &M : Got) {
      Bytes += M->serialize().size();
      Manifests.push_back(std::move(*M));
    }
    if (Bytes == 0)
      return 0;
  }
  Scope S(Tr, "shard.merge", Parent, Req);
  std::optional<TaskResult> Merged =
      ShardCoordinator::merge(Spec, E.H.fingerprint(), std::move(Manifests));
  return Merged ? Merged->Batch.batchHash() : 0;
}

/// Sum, count, and summed self time of the spans of one name.
struct LayerAgg {
  double Sum = 0.0;
  double Self = 0.0;
  size_t Count = 0;
  double meanMs() const { return Count ? Sum * 1e3 / Count : 0.0; }
};

bool runTraced(const WorkloadDef &W, const RunOptions &O,
               const std::string &RunDir, RunReport &R, std::string *Error) {
  FailureCounter F;
  Tracer Tr(true);
  Tracer Off(false);

  std::optional<TracedEnv> TE = tracedSetUp(W, Tr, F, R, Error);
  if (!TE)
    return false;
  Env &E = *TE->E;
  const bool Fleet = !E.Daemons.empty();

  ArtifactStore::Stats Store0 = E.Service->storeStats();
  ShotTally Tally;
  size_t FetchHits = 0, FetchMisses = 0, ArtifactBytes = 0, Redis = 0;
  std::vector<double> RangeMs;
  uint64_t Requests = 0;
  Timer Wall;
  while (Wall.seconds() < O.Seconds) {
    const uint64_t Req = ++Requests;
    TaskSpec Spec = E.Spec;
    Spec.Seed = requestSeed(O.Seed, Req - 1);
    const std::string Dir = RunDir + "/req-" + std::to_string(Req);
    Scope Root(Tr, "request", 0, Req);

    uint64_t RunHash = 0;
    {
      Scope S(Tr, "service.run", Root.id(), Req);
      Outcome Out = request(E, Spec, Dir);
      if (Out.Result)
        RunHash = Out.Result->Batch.batchHash();
      else
        R.Lines.push_back("request failed: " + Out.Error);
      for (const FleetWorkerStats &WS : Out.Report.Fleet.Workers) {
        FetchHits += WS.FetchHits;
        FetchMisses += WS.FetchMisses;
        ArtifactBytes += WS.ArtifactBytesServed;
        Redis += WS.RangesRedispatched;
      }
    }
    fs::remove_all(Dir);
    uint64_t ReplayHash = 0;
    {
      Scope S(Tr, "replay", Root.id(), Req);
      ReplayHash = replayCore(Tr, S.id(), Req, *TE, Spec, &Tally);
    }
    {
      Scope S(Tr, "replay.untraced", Root.id(), Req);
      replayCore(Off, 0, Req, *TE, Spec, nullptr);
    }
    {
      // The request's batch at its own Jobs, untraced: core.batch_ms and
      // the denominator of core.pool_efficiency.
      Scope S(Tr, "core.batch", Root.id(), Req);
      BatchRequest BR;
      BR.Strategy = TE->Base->retargeted(Spec.Time, Spec.Epsilon);
      BR.NumShots = Spec.Shots;
      BR.Jobs = Spec.Jobs;
      BR.Seed = Spec.Seed;
      BR.Opts = Spec.Lowering;
      if (const FidelityEvaluator *Eval = TE->Eval.get())
        BR.PerShot = [Eval](size_t, const CompilationResult &Res) {
          Eval->fidelity(Res.Schedule, 1);
        };
      CompilerEngine().compileBatch(BR);
    }
    bool Ok = RunHash != 0 && ReplayHash == RunHash;
    if (Fleet) {
      uint64_t FleetHash = 0;
      {
        Scope S(Tr, "fleet.replay", Root.id(), Req);
        FleetHash = replayFleet(Tr, S.id(), Req, *TE, Spec, 1, Dir);
      }
      {
        Scope S(Tr, "fleet.replay.untraced", Root.id(), Req);
        replayFleet(Off, 0, Req, *TE, Spec, 1, Dir);
      }
      {
        Scope S(Tr, "fleet.replay.parallel", Root.id(), Req);
        replayFleet(Off, 0, Req, *TE, Spec,
                    static_cast<unsigned>(E.HostPorts.size()), Dir);
      }
      // The service time of each range, run locally: what a worker does
      // between receiving shard-submit and answering.
      const ShardPlan Plan = ShardPlan::split(Spec.Shots, W.Shards);
      for (const ShotRange &Range : Plan.Ranges) {
        Timer T;
        Scope S(Tr, "service.range", Root.id(), Req);
        E.Service->run(Spec, Range);
        RangeMs.push_back(T.millis());
      }
      Ok = Ok && FleetHash == RunHash;
    }
    F.record(Ok);
  }
  const double SteadyS = Wall.seconds();
  ArtifactStore::Stats Store1 = E.Service->storeStats();

  // A bare frame round trip per daemon: health frames, answered on the
  // connection's handler thread without the scheduler. What a shard round
  // trip spends beyond this and the range's service time is time the range
  // waits on the worker (scheduler queue, spec parse, manifest encode).
  std::vector<double> PingMs;
  for (const std::string &HP : E.HostPorts) {
    std::optional<server::DaemonClient> C =
        server::DaemonClient::connectTo(HP);
    bool Ok = C.has_value();
    for (int K = 0; Ok && K < 16; ++K) {
      Timer T;
      Ok = C->health();
      PingMs.push_back(T.millis());
    }
    check(F, R, Ok, "daemon " + HP + " answers health frames");
  }
  if (Fleet)
    check(F, R, Redis == 0,
          format("fleet: %zu ranges re-dispatched (want 0)", Redis));

  // Aggregate spans: set-up children by name, steady-phase spans by name
  // (the untraced replays recorded nothing inside).
  const std::vector<Span> Spans = Tr.spans();
  const std::map<uint64_t, double> Self = selfTimes(Spans);
  std::map<std::string, LayerAgg> Setup, Steady;
  for (const Span &S : Spans) {
    LayerAgg &A = (S.Request == 0 ? Setup : Steady)[S.Name];
    A.Sum += S.seconds();
    A.Self += Self.at(S.Id);
    ++A.Count;
  }
  auto SetupMs = [&](const char *N) {
    auto It = Setup.find(N);
    return It == Setup.end() ? 0.0 : It->second.Sum * 1e3;
  };
  auto St = [&](const char *N) -> const LayerAgg & {
    static const LayerAgg Empty;
    auto It = Steady.find(N);
    return It == Steady.end() ? Empty : It->second;
  };
  const double ReqCount =
      static_cast<double>(std::max<uint64_t>(Requests, 1));
  const double Dim = static_cast<double>(size_t(1) << E.H.numQubits());
  const double Cols = static_cast<double>(W.Columns);
  const double EvalS = St("sim.eval").Sum;
  const double ShotWork =
      St("markov.walk").Sum + St("core.emit").Sum + St("sim.eval").Sum;
  const double BatchS = St("core.batch").Sum;
  const unsigned JobsUsed =
      static_cast<unsigned>(std::min<size_t>(E.Spec.Jobs, E.Spec.Shots));
  const double Shots = static_cast<double>(std::max<size_t>(Tally.Shots, 1));

  // service.run overhead: run() wall minus the replayed children at the
  // request's own concurrency.
  double OverheadMs;
  if (Fleet)
    OverheadMs = St("service.run").meanMs() -
                 St("fleet.replay.parallel").meanMs();
  else
    OverheadMs = St("service.run").meanMs() - St("pauli.prepare").meanMs() -
                 St("service.resolve").meanMs() - St("core.batch").meanMs();
  // Tracing overhead and attribution on the primary replay.
  const char *Primary = Fleet ? "fleet.replay" : "replay";
  const std::string Untraced = std::string(Primary) + ".untraced";
  const double TraceOverheadMs =
      St(Primary).meanMs() - St(Untraced.c_str()).meanMs();
  double Unattributed = St(Primary).Self;
  if (!Fleet)
    Unattributed += St("core.batch1").Self;
  const double Attributed =
      St(Primary).Sum > 0 ? 1.0 - Unattributed / St(Primary).Sum : 0.0;
  const double RttMs = St("server.shard_rtt").meanMs();
  const double ServiceRangeMs = median(RangeMs);

  // Which layer dominates each phase.
  std::string Top;
  double TopMs = 0.0, SetupTotal = 0.0;
  for (const auto &[Name, A] : Setup)
    if (Name != "setup") {
      SetupTotal += A.Sum;
      if (A.Sum * 1e3 > TopMs) {
        TopMs = A.Sum * 1e3;
        Top = Name;
      }
    }
  R.Lines.push_back(format("setup: %s dominates, %.1f ms of %.1f ms (%.0f%%)",
                           Top.c_str(), TopMs, SetupTotal * 1e3,
                           SetupTotal > 0 ? TopMs / (SetupTotal * 10) : 0.0));
  std::vector<const char *> SteadyLayers =
      Fleet ? std::vector<const char *>{"service.export", "server.connect",
                                        "server.artifact", "server.shard_rtt",
                                        "shard.manifest_parse",
                                        "shard.manifest_write",
                                        "shard.manifest_serialize",
                                        "shard.merge"}
            : std::vector<const char *>{"pauli.prepare", "service.resolve",
                                        "markov.walk", "core.emit",
                                        "sim.eval"};
  std::string Shares;
  for (const char *N : SteadyLayers)
    Shares += format(" %s=%.1f%%", N,
                     St(Primary).Sum > 0 ? 100 * St(N).Self / St(Primary).Sum
                                         : 0.0);
  R.Lines.push_back(std::string("steady (") + Primary +
                    " self-time shares):" + Shares);
  R.Lines.push_back(format("requests %" PRIu64 " in %.3f s; layer self "
                           "times cover %.1f%% of the %s wall",
                           Requests, SteadyS, 100 * Attributed, Primary));
  check(F, R, Attributed >= 0.9,
        format("attribution: named layers cover %.1f%% of the replay wall "
               "(want >= 90%%)",
               100 * Attributed));

  const std::string TracePath = RunDir + "/../" + W.Name + "-seed" +
                                std::to_string(O.Seed) + ".trace.json";
  if (writeChromeTrace(Spans, TracePath))
    R.Lines.push_back("trace written: " +
                      fs::weakly_canonical(TracePath).string());

  R.Metrics = {
      {"hamgen.build_ms", SetupMs("hamgen.build"), "ms"},
      {"pauli.prepare_ms", SetupMs("pauli.prepare"), "ms"},
      {"pauli.terms", static_cast<double>(E.H.numTerms()), "count"},
      {"pauli.xmask_groups", static_cast<double>(TE->XMaskGroups), "count"},
      {"core.cost_table_ms", SetupMs("core.cost_table"), "ms"},
      {"flow.gc_solve_ms", SetupMs("flow.gc_solve"), "ms"},
      {"flow.rp_solve_ms", SetupMs("flow.rp_solve"), "ms"},
      {"flow.solves", static_cast<double>(TE->Solves), "count"},
      {"markov.combine_ms", SetupMs("markov.combine"), "ms"},
      {"markov.graph_build_ms", SetupMs("markov.graph_build"), "ms"},
      {"markov.walk_ms_per_shot", St("markov.walk").Sum * 1e3 / Shots, "ms"},
      {"markov.steps_per_s",
       St("markov.walk").Sum > 0 ? Tally.Samples / St("markov.walk").Sum
                                 : 0.0,
       "1/s"},
      {"core.emit_ms_per_shot", St("core.emit").Sum * 1e3 / Shots, "ms"},
      {"core.rotations_per_shot", Tally.Rotations / Shots, "count"},
      {"core.cnots_cancelled_per_shot", Tally.CancelledCNOTs / Shots,
       "count"},
      {"core.batch_ms", St("core.batch").meanMs(), "ms"},
      {"core.pool_efficiency", BatchS > 0 ? ShotWork / (JobsUsed * BatchS) : 0,
       "1"},
      {"sim.targets_ms_per_column",
       Cols > 0 ? SetupMs("sim.targets") / Cols : 0.0, "ms"},
      {"sim.eval_ms_per_shot", EvalS * 1e3 / Shots, "ms"},
      {"sim.amp_updates_per_s",
       EvalS > 0 ? Tally.EvaluatedRotations * Dim * Cols / EvalS : 0.0,
       "1/s"},
      // One read and one write of each 16-byte amplitude per rotation.
      {"sim.eval_bytes_per_shot",
       Tally.EvaluatedRotations / Shots * Dim * Cols * 32.0, "B"},
      {"store.mem_hits", (Store1.MemoryHits - Store0.MemoryHits) / ReqCount,
       "count"},
      {"store.computes", static_cast<double>(Store1.Computes - Store0.Computes),
       "count"},
      {"store.peak_bytes", static_cast<double>(Store1.PeakBytes), "B"},
      {"store.encode_ms", SetupMs("store.encode"), "ms"},
      {"store.decode_ms", SetupMs("store.decode"), "ms"},
      {"service.run_overhead_ms", OverheadMs, "ms"},
      {"shard.manifest_serialize_ms",
       St("shard.manifest_parse").Count
           ? St("shard.manifest_serialize").Sum * 1e3 /
                 St("shard.manifest_parse").Count
           : 0.0,
       "ms"},
      {"shard.manifest_parse_ms", St("shard.manifest_parse").meanMs(), "ms"},
      {"shard.merge_ms", St("shard.merge").meanMs(), "ms"},
      {"server.connect_ms", St("server.connect").meanMs(), "ms"},
      {"server.shard_rtt_ms", RttMs, "ms"},
      {"server.transport_ms", Fleet ? RttMs - ServiceRangeMs : 0.0, "ms"},
      {"server.queue_wait_ms",
       Fleet ? RttMs - ServiceRangeMs - median(PingMs) : 0.0, "ms"},
      {"fleet.fetch_hits", static_cast<double>(FetchHits), "count"},
      {"fleet.fetch_misses", static_cast<double>(FetchMisses), "count"},
      {"fleet.artifact_bytes", static_cast<double>(ArtifactBytes), "B"},
      {"fleet.redispatched", static_cast<double>(Redis), "count"},
      {"trace.overhead_ms", TraceOverheadMs, "ms"},
      {"trace.attributed_frac", Attributed, "1"},
  };
  R.Attempted = F.attempted();
  R.Failed = F.failed();
  return true;
}

} // namespace

std::vector<std::string> perfbench::workloadNames() {
  std::vector<std::string> Names;
  for (const WorkloadDef &W : Defs)
    Names.push_back(W.Name);
  return Names;
}

bool perfbench::runWorkload(const RunOptions &O, RunReport &R,
                            std::string *Error) {
  const WorkloadDef *W = nullptr;
  for (const WorkloadDef &D : Defs)
    if (O.Workload == D.Name)
      W = &D;
  if (!W)
    return detail::fail(Error, "unknown workload '" + O.Workload + "'");
  const std::string RunDir = O.WorkDir + "/" + W->Name + "-" +
                             std::to_string(static_cast<long>(getpid()));
  std::error_code EC;
  fs::create_directories(RunDir, EC);
  if (EC)
    return detail::fail(Error, "cannot create " + RunDir + ": " +
                                   EC.message());
  bool Ok = O.Trace ? runTraced(*W, O, RunDir, R, Error)
                    : runTimed(*W, O, RunDir, R, Error);
  fs::remove_all(RunDir, EC);
  return Ok;
}
