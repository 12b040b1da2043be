//===- tests/ServerTest.cpp - Resident daemon contracts -----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The contracts of the server subsystem:
//   * the JSON codec round-trips the protocol's value shapes, renders
//     deterministically, and rejects malformed/adversarial input,
//   * TaskSpec's JSON transport preserves contentKey and Hamiltonian
//     fingerprint exactly (the bit-identity precondition),
//   * frames decode strictly: bad JSON, missing/foreign version, and
//     missing type each fail with the right error code,
//   * the scheduler admits/bounds/cancels/expires/drains correctly, is
//     fair across client keys, and its streamed chunks concatenate
//     bit-identically to one full run; schedulers sharing a process run
//     their requests concurrently on their own executor threads,
//   * a live daemon serves results byte-identical to local runs, keeps a
//     connection alive across malformed frames, survives oversized
//     payloads and mid-stream disconnects, coalesces repeated specs from
//     concurrent clients onto one MCFP solve, drains cleanly on the
//     shutdown frame, and reports its kernel tier once, under "kernels",
//     in the v3 stats frame.
//
//===----------------------------------------------------------------------===//

#include "circuit/QasmExport.h"
#include "server/Client.h"
#include "server/Daemon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

using namespace marqsim;
using server::Frame;

namespace {

Hamiltonian testHamiltonian() {
  return Hamiltonian::parse({{0.9, "XXII"},
                             {-0.5, "IZZI"},
                             {0.25, "IIXY"},
                             {0.75, "ZIIZ"}});
}

TaskSpec testSpec(size_t Shots = 3) {
  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(testHamiltonian());
  Spec.Mix = *ChannelMix::preset("gc");
  Spec.Time = 0.4;
  Spec.Epsilon = 0.06;
  Spec.Shots = Shots;
  Spec.Seed = 2024;
  Spec.Evaluate.FidelityColumns = 2;
  return Spec;
}

} // namespace

//===----------------------------------------------------------------------===//
// JSON codec
//===----------------------------------------------------------------------===//

TEST(JsonTest, DumpIsDeterministicAndInsertionOrdered) {
  json::Value V = json::Value::object()
                      .set("b", 2)
                      .set("a", 1)
                      .set("s", "x\"y\n")
                      .set("t", true)
                      .set("n", nullptr);
  json::Value Arr = json::Value::array();
  Arr.push(1);
  Arr.push(2.5);
  V.set("arr", std::move(Arr));
  // Insertion order, not sorted; strings escaped; no whitespace.
  EXPECT_EQ(V.dump(), "{\"b\":2,\"a\":1,\"s\":\"x\\\"y\\n\",\"t\":true,"
                      "\"n\":null,\"arr\":[1,2.5]}");
  // set() replaces in place without reordering.
  V.set("a", 7);
  EXPECT_NE(V.dump().find("\"b\":2,\"a\":7"), std::string::npos);
}

TEST(JsonTest, ParseRoundTripsValueShapes) {
  const std::string Text =
      "{\"i\":-42,\"d\":2.5,\"b\":false,\"n\":null,\"s\":\"a\\u0041\\n\","
      "\"arr\":[1,[2],{\"k\":3}]}";
  std::optional<json::Value> V = json::Value::parse(Text);
  ASSERT_TRUE(V);
  EXPECT_EQ(V->find("i")->kind(), json::Value::Kind::Int);
  EXPECT_EQ(V->find("i")->asInt(), -42);
  EXPECT_EQ(V->find("d")->kind(), json::Value::Kind::Double);
  EXPECT_EQ(V->find("d")->asDouble(), 2.5);
  EXPECT_EQ(V->find("s")->asString(), "aA\n");
  EXPECT_EQ(V->find("arr")->size(), 3u);
  EXPECT_EQ(V->find("arr")->at(2).find("k")->asInt(), 3);
  // Re-dump re-parses to the same rendering (fixed point).
  std::optional<json::Value> Again = json::Value::parse(V->dump());
  ASSERT_TRUE(Again);
  EXPECT_EQ(Again->dump(), V->dump());
}

TEST(JsonTest, RejectsMalformedAndAdversarialInput) {
  std::string Error;
  EXPECT_FALSE(json::Value::parse("", &Error));
  EXPECT_FALSE(json::Value::parse("{\"a\":1} trailing", &Error));
  EXPECT_NE(Error.find("trailing"), std::string::npos);
  EXPECT_FALSE(json::Value::parse("{\"a\":}", &Error));
  EXPECT_FALSE(json::Value::parse("[1,]", &Error));
  EXPECT_FALSE(json::Value::parse("\"unterminated", &Error));
  EXPECT_FALSE(json::Value::parse("nul", &Error));
  EXPECT_FALSE(json::Value::parse("{\"a\" 1}", &Error));
  // A nesting bomb fails on the depth limit instead of the stack.
  std::string Bomb(4096, '[');
  EXPECT_FALSE(json::Value::parse(Bomb, &Error));
  EXPECT_NE(Error.find("deep"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// TaskSpec JSON transport
//===----------------------------------------------------------------------===//

TEST(TaskSpecJsonTest, RoundTripPreservesContentKeyAndFingerprint) {
  TaskSpec Spec = testSpec(7);
  // Non-default values across the board so a dropped field shows up.
  Spec.Mix = ChannelMix{0.5, 0.3, 0.2};
  Spec.PerturbRounds = 5;
  Spec.PerturbSeed = 0xFEED;
  Spec.Flow.ProbScale = 500'000'000;
  Spec.Flow.CostScale = 3;
  Spec.Time = 0.7311;
  Spec.Epsilon = 0.031;
  Spec.UseCDF = !Spec.UseCDF;
  Spec.Seed = 0x1234'5678'9ABC'DEF0ull;
  Spec.Jobs = 2;
  Spec.EvalJobs = 2;
  Spec.Evaluate.FidelityColumns = 3;
  Spec.Evaluate.ColumnSeed = 99;

  std::string Error;
  std::optional<json::Value> J = Spec.toJson(&Error);
  ASSERT_TRUE(J) << Error;
  // Through text, as the wire would carry it.
  std::optional<json::Value> Parsed = json::Value::parse(J->dump(), &Error);
  ASSERT_TRUE(Parsed) << Error;
  std::optional<TaskSpec> Back = TaskSpec::fromJson(*Parsed, &Error);
  ASSERT_TRUE(Back) << Error;

  EXPECT_EQ(Back->contentKey(), Spec.contentKey());
  EXPECT_EQ(Back->Shots, Spec.Shots);
  EXPECT_EQ(Back->Seed, Spec.Seed);
  EXPECT_EQ(Back->Jobs, Spec.Jobs);
  EXPECT_EQ(Back->EvalJobs, Spec.EvalJobs);
  // The doubles travel as bit patterns: exact equality, not closeness.
  EXPECT_EQ(Back->Time, Spec.Time);
  EXPECT_EQ(Back->Epsilon, Spec.Epsilon);
  EXPECT_EQ(Back->Mix.WQd, Spec.Mix.WQd);

  std::optional<Hamiltonian> A =
      SimulationService::resolveHamiltonian(Spec.Source, nullptr);
  std::optional<Hamiltonian> B =
      SimulationService::resolveHamiltonian(Back->Source, nullptr);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->fingerprint(), B->fingerprint());
}

TEST(TaskSpecJsonTest, NoiseRoundTripsAndOldFramesParseAsNoiseless) {
  TaskSpec Spec = testSpec();
  Spec.Evaluate.FidelityColumns = 2;
  Spec.Noise.Kind = NoiseChannelKind::AmplitudeDamping;
  Spec.Noise.Prob = 0.1 + 0.025; // no short decimal representation
  Spec.Noise.TwoQubitFactor = 1.0 / 3.0;
  Spec.Noise.Mode = NoiseMode::Density;

  std::string Error;
  std::optional<json::Value> J = Spec.toJson(&Error);
  ASSERT_TRUE(J) << Error;
  std::optional<json::Value> Parsed = json::Value::parse(J->dump(), &Error);
  ASSERT_TRUE(Parsed) << Error;
  std::optional<TaskSpec> Back = TaskSpec::fromJson(*Parsed, &Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_EQ(Back->Noise.Kind, NoiseChannelKind::AmplitudeDamping);
  EXPECT_EQ(Back->Noise.Mode, NoiseMode::Density);
  // Hex transport: bit-for-bit doubles, hence equal content keys.
  EXPECT_EQ(Back->Noise.Prob, Spec.Noise.Prob);
  EXPECT_EQ(Back->Noise.TwoQubitFactor, Spec.Noise.TwoQubitFactor);
  EXPECT_EQ(Back->contentKey(), Spec.contentKey());

  // Frames serialized before the noise field existed carry no "noise"
  // member; they must parse as noiseless, not fail strict validation.
  std::optional<json::Value> Plain = testSpec().toJson();
  ASSERT_TRUE(Plain);
  json::Value Old = json::Value::object();
  for (const json::Member &M : *Plain->members())
    if (M.first != "noise")
      Old.set(M.first, M.second);
  std::optional<TaskSpec> FromOld = TaskSpec::fromJson(Old, &Error);
  ASSERT_TRUE(FromOld) << Error;
  EXPECT_FALSE(FromOld->Noise.enabled());
  EXPECT_EQ(FromOld->contentKey(), testSpec().contentKey());

  // When the member is present, unknown spellings are rejected.
  json::Value Bad = *J;
  json::Value BadNoise = json::Value::object()
                             .set("channel", "bitflip")
                             .set("mode", "density")
                             .set("prob", "3fb0000000000000")
                             .set("two_qubit_factor", "3ff0000000000000");
  Bad.set("noise", std::move(BadNoise));
  EXPECT_FALSE(TaskSpec::fromJson(Bad, &Error));
  EXPECT_NE(Error.find("channel"), std::string::npos);
}

TEST(TaskSpecJsonTest, ParentFramesKeepContentKeyAndFp32IsRejected) {
  // Recorded on the last build that still had an FP32 evaluation tier: the
  // key this spec's cache entries, manifests and daemon frames carry.
  constexpr uint64_t PinnedKey = 0x06410f06a8cd3cd9ull;
  EXPECT_EQ(testSpec().contentKey(), PinnedKey);

  // testSpec() as that build serialized it, "precision":"fp64" included.
  const std::string ParentFrame = R"json({"format":"marqsim-spec-v1",
    "hamiltonian":{"qubits":4,"terms":[["3feccccccccccccd","XXII"],
      ["bfe0000000000000","IZZI"],["3fd0000000000000","IIXY"],
      ["3fe8000000000000","ZIIZ"]]},
    "method":"sampling","time":"3fd999999999999a",
    "epsilon":"3faeb851eb851eb8","mix":{"qd":"3fd999999999999a",
      "gc":"3fe3333333333333","rp":"0000000000000000"},
    "perturb_rounds":8,"perturb_seed":"0000000000005eed",
    "flow":{"prob_scale":1000000000,"cost_scale":2},"use_cdf":false,
    "trotter_reps":4,"trotter_order":1,"term_order":"given",
    "sparsto_keep_scale":"3ff8000000000000","shots":3,"jobs":1,
    "eval_jobs":1,"seed":"00000000000007e8","precision":"fp64",
    "noise":{"channel":"none","mode":"stochastic",
      "prob":"0000000000000000","two_qubit_factor":"3ff0000000000000"},
    "lowering":{"cross_cancellation":true,"use_cdf_sampler":false},
    "evaluate":{"fidelity_columns":2,"column_seed":"0000000000000007",
      "export_shot_zero":false,"dump_dot":false,"keep_results":false}})json";
  std::string Error;
  std::optional<json::Value> Parent = json::Value::parse(ParentFrame, &Error);
  ASSERT_TRUE(Parent) << Error;
  std::optional<TaskSpec> Back = TaskSpec::fromJson(*Parent, &Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_EQ(Back->contentKey(), PinnedKey);

  // This build no longer writes the member ...
  std::optional<json::Value> Fresh = testSpec().toJson(&Error);
  ASSERT_TRUE(Fresh) << Error;
  EXPECT_EQ(Fresh->find("precision"), nullptr);

  // ... and a stale fp32 request is refused, never evaluated in FP64.
  json::Value Fp32 = *Parent;
  Fp32.set("precision", "fp32");
  EXPECT_FALSE(TaskSpec::fromJson(Fp32, &Error));
  EXPECT_NE(Error.find("precision"), std::string::npos) << Error;
}

TEST(TaskSpecJsonTest, RetiredCDFSamplerFieldIsWrittenFalseAndRejectedTrue) {
  // lowering.use_cdf_sampler only ever changed the content key, never the
  // draws; the CDF ablation is the spec's use_cdf. Frames still carry the
  // field as false for peers that require it, and true is refused.
  std::string Error;
  std::optional<json::Value> Fresh = testSpec().toJson(&Error);
  ASSERT_TRUE(Fresh) << Error;
  const json::Value *Lowering = Fresh->find("lowering");
  ASSERT_NE(Lowering, nullptr);
  const json::Value *Field = Lowering->find("use_cdf_sampler");
  ASSERT_NE(Field, nullptr);
  EXPECT_FALSE(Field->asBool());

  json::Value Stale = *Fresh;
  json::Value StaleLowering = *Lowering;
  StaleLowering.set("use_cdf_sampler", true);
  Stale.set("lowering", std::move(StaleLowering));
  EXPECT_FALSE(TaskSpec::fromJson(Stale, &Error));
  EXPECT_NE(Error.find("use_cdf_sampler"), std::string::npos) << Error;
  EXPECT_NE(Error.find("'use_cdf'"), std::string::npos) << Error;
}

TEST(TaskSpecJsonTest, RejectsMalformedSpecs) {
  TaskSpec Spec = testSpec();
  std::optional<json::Value> Good = Spec.toJson();
  ASSERT_TRUE(Good);
  std::string Error;

  json::Value BadFormat = *Good;
  BadFormat.set("format", "marqsim-spec-v999");
  EXPECT_FALSE(TaskSpec::fromJson(BadFormat, &Error));
  EXPECT_NE(Error.find("format"), std::string::npos);

  json::Value NoHam = *Good;
  NoHam.set("hamiltonian", json::Value::object());
  EXPECT_FALSE(TaskSpec::fromJson(NoHam, &Error));

  // A Pauli string whose length disagrees with the declared register.
  json::Value BadTerm = *Good;
  {
    json::Value Ham = json::Value::object();
    Ham.set("qubits", 4);
    json::Value Terms = json::Value::array();
    json::Value Term = json::Value::array();
    Term.push("3fe0000000000000");
    Term.push("XX"); // two qubits, register says four
    Terms.push(std::move(Term));
    Ham.set("terms", std::move(Terms));
    BadTerm.set("hamiltonian", std::move(Ham));
  }
  EXPECT_FALSE(TaskSpec::fromJson(BadTerm, &Error));

  EXPECT_FALSE(TaskSpec::fromJson(json::Value::object(), &Error));
  EXPECT_FALSE(TaskSpec::fromJson(json::Value(1), &Error));
}

TEST(TaskSpecJsonTest, RejectsNonFiniteSparStoKeepScale) {
  // NaN and +inf are not "<= 0", and SparSto keeps a term with probability
  // min(1, KeepScale * ...), which is 1 for either: such a spec would run
  // as "keep every term" under a content key of its own.
  TaskSpec Spec = testSpec();
  Spec.Method = TaskMethod::SparSto;
  std::optional<json::Value> Good = Spec.toJson();
  ASSERT_TRUE(Good);
  std::string Error;
  ASSERT_TRUE(TaskSpec::fromJson(*Good, &Error)) << Error;

  for (const char *Bits : {"7ff8000000000000", "7ff0000000000000"}) {
    json::Value Bad = *Good;
    Bad.set("sparsto_keep_scale", Bits);
    Error.clear();
    EXPECT_FALSE(TaskSpec::fromJson(Bad, &Error)) << Bits;
    EXPECT_NE(Error.find("keep scale"), std::string::npos) << Error;
  }
}

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, FramesRoundTripWithLeadingVersionAndType) {
  std::string Line = server::encodeFrame(
      "submit", json::Value::object().set("id", 7));
  ASSERT_FALSE(Line.empty());
  EXPECT_EQ(Line.back(), '\n');
  EXPECT_EQ(Line.rfind("{\"v\":1,\"type\":\"submit\"", 0), 0u);
  std::optional<Frame> F = server::decodeFrame(Line);
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, "submit");
  EXPECT_EQ(F->Body.find("id")->asInt(), 7);
}

TEST(ProtocolTest, DecodeRejectsWithPreciseErrorCodes) {
  std::string Code, Message;
  EXPECT_FALSE(server::decodeFrame("not json", &Code, &Message));
  EXPECT_EQ(Code, "bad-frame");
  EXPECT_FALSE(server::decodeFrame("[1,2]", &Code, &Message));
  EXPECT_EQ(Code, "bad-frame");
  EXPECT_FALSE(server::decodeFrame("{\"type\":\"health\"}", &Code, &Message));
  EXPECT_EQ(Code, "bad-frame"); // missing version
  EXPECT_FALSE(server::decodeFrame("{\"v\":99,\"type\":\"health\"}", &Code,
                                   &Message));
  EXPECT_EQ(Code, "version-mismatch");
  EXPECT_FALSE(server::decodeFrame("{\"v\":1}", &Code, &Message));
  EXPECT_EQ(Code, "bad-frame"); // missing type
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, RunsARequestToDone) {
  SimulationService Service;
  server::BatchScheduler Sched(Service);
  std::string Error;
  server::SubmitReject Reject;
  uint64_t Id = Sched.submit(testSpec(), "c1", &Reject, &Error);
  ASSERT_GT(Id, 0u) << Error;
  std::optional<server::RequestOutcome> Out = Sched.wait(Id);
  ASSERT_TRUE(Out);
  EXPECT_EQ(Out->State, server::RequestState::Done);
  ASSERT_TRUE(Out->Result);
  EXPECT_EQ(Out->Result->Batch.Shots.size(), 3u);

  // Unknown ids answer nothing rather than blocking.
  EXPECT_FALSE(Sched.wait(Id + 999));
  EXPECT_FALSE(Sched.status(Id + 999));
  EXPECT_EQ(*Sched.status(Id), server::RequestState::Done);
  EXPECT_EQ(Sched.stats().Completed, 1u);
}

TEST(SchedulerTest, StreamedChunksConcatenateBitIdentically) {
  SimulationService Reference;
  TaskSpec Spec = testSpec(5);
  std::optional<TaskResult> Full = Reference.run(Spec);
  ASSERT_TRUE(Full);

  SimulationService Service;
  server::SchedulerOptions Opts;
  Opts.StreamChunkShots = 2; // 5 shots -> chunks of 2+2+1
  server::BatchScheduler Sched(Service, Opts);

  std::mutex M;
  std::vector<ShotRange> Ranges;
  std::vector<ShotSummary> Streamed;
  std::vector<double> Fidelities;
  uint64_t Id = Sched.submit(
      Spec, "c1", nullptr, nullptr,
      [&](const ShotRange &R, const std::vector<ShotSummary> &S,
          const std::vector<double> &F) {
        std::lock_guard<std::mutex> Lock(M);
        Ranges.push_back(R);
        Streamed.insert(Streamed.end(), S.begin(), S.end());
        Fidelities.insert(Fidelities.end(), F.begin(), F.end());
      });
  ASSERT_GT(Id, 0u);
  std::optional<server::RequestOutcome> Out = Sched.wait(Id);
  ASSERT_TRUE(Out);
  ASSERT_EQ(Out->State, server::RequestState::Done);

  // Chunks arrived in order and cover the batch exactly.
  ASSERT_EQ(Ranges.size(), 3u);
  size_t Next = 0;
  for (const ShotRange &R : Ranges) {
    EXPECT_EQ(R.Begin, Next);
    Next = R.end();
  }
  EXPECT_EQ(Next, 5u);

  // Both the streamed pieces and the folded result are bit-identical to
  // the single-run reference.
  ASSERT_EQ(Streamed.size(), 5u);
  ASSERT_EQ(Fidelities.size(), 5u);
  for (size_t I = 0; I < 5; ++I) {
    EXPECT_EQ(Streamed[I].SequenceHash, Full->Batch.Shots[I].SequenceHash);
    EXPECT_EQ(Fidelities[I], Full->ShotFidelities[I]);
  }
  EXPECT_EQ(Out->Result->Batch.batchHash(), Full->Batch.batchHash());
  EXPECT_EQ(Out->Result->Fidelity.Mean, Full->Fidelity.Mean);
  EXPECT_EQ(Out->Result->Fidelity.Std, Full->Fidelity.Std);
}

TEST(SchedulerTest, BoundsQueueDepthAndReportsRejects) {
  SimulationService Service;
  server::SchedulerOptions Opts;
  Opts.MaxQueueDepth = 1;
  server::BatchScheduler Sched(Service, Opts);
  Sched.holdDispatch(true);

  server::SubmitReject Reject;
  uint64_t A = Sched.submit(testSpec(), "c1", &Reject);
  ASSERT_GT(A, 0u);
  std::string Error;
  uint64_t B = Sched.submit(testSpec(), "c1", &Reject, &Error);
  EXPECT_EQ(B, 0u);
  EXPECT_EQ(Reject, server::SubmitReject::QueueFull);
  EXPECT_NE(Error.find("queue"), std::string::npos);

  // An invalid spec is rejected before touching the queue.
  TaskSpec Invalid = testSpec();
  Invalid.Shots = 0;
  EXPECT_EQ(Sched.submit(Invalid, "c1", &Reject), 0u);
  EXPECT_EQ(Reject, server::SubmitReject::Invalid);

  Sched.holdDispatch(false);
  std::optional<server::RequestOutcome> Out = Sched.wait(A);
  ASSERT_TRUE(Out);
  EXPECT_EQ(Out->State, server::RequestState::Done);
  server::SchedulerStats S = Sched.stats();
  EXPECT_EQ(S.Admitted, 1u);
  EXPECT_EQ(S.RejectedFull, 1u);
  EXPECT_EQ(S.RejectedInvalid, 1u);
  EXPECT_EQ(S.PeakQueueDepth, 1u);
  EXPECT_EQ(S.LatencyCount, 1u);
  EXPECT_GT(S.latencyQuantileMs(0.5), 0.0);
}

TEST(SchedulerTest, CancelsQueuedAndExpiresPastDeadline) {
  SimulationService Service;
  server::BatchScheduler Sched(Service);
  Sched.holdDispatch(true);

  uint64_t Doomed = Sched.submit(testSpec(), "c1");
  ASSERT_GT(Doomed, 0u);
  EXPECT_TRUE(Sched.cancel(Doomed));
  std::optional<server::RequestOutcome> Out = Sched.wait(Doomed);
  ASSERT_TRUE(Out);
  EXPECT_EQ(Out->State, server::RequestState::Cancelled);
  EXPECT_FALSE(Sched.cancel(Doomed)); // already terminal

  uint64_t Late = Sched.submit(testSpec(), "c1", nullptr, nullptr, nullptr,
                               /*DeadlineMs=*/1);
  ASSERT_GT(Late, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Sched.holdDispatch(false);
  Out = Sched.wait(Late);
  ASSERT_TRUE(Out);
  EXPECT_EQ(Out->State, server::RequestState::Expired);
  EXPECT_EQ(Sched.stats().Cancelled, 1u);
  EXPECT_EQ(Sched.stats().Expired, 1u);
}

TEST(SchedulerTest, FairShareInterleavesClients) {
  SimulationService Service;
  server::BatchScheduler Sched(Service); // Workers = 1: serial execution
  Sched.holdDispatch(true);

  std::mutex M;
  std::vector<std::string> Order;
  auto Tag = [&](const char *Name) {
    return [&, Name](const ShotRange &, const std::vector<ShotSummary> &,
                     const std::vector<double> &) {
      std::lock_guard<std::mutex> Lock(M);
      if (Order.empty() || Order.back() != Name)
        Order.push_back(Name);
    };
  };
  TaskSpec Spec = testSpec(1);
  // Client A queues two requests before client B's one arrives; round-
  // robin still alternates A, B, A rather than draining A first.
  uint64_t A1 = Sched.submit(Spec, "a", nullptr, nullptr, Tag("a1"));
  uint64_t A2 = Sched.submit(Spec, "a", nullptr, nullptr, Tag("a2"));
  uint64_t B1 = Sched.submit(Spec, "b", nullptr, nullptr, Tag("b1"));
  ASSERT_TRUE(A1 && A2 && B1);
  Sched.holdDispatch(false);
  Sched.wait(A1);
  Sched.wait(A2);
  Sched.wait(B1);
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order[0], "a1");
  EXPECT_EQ(Order[1], "b1");
  EXPECT_EQ(Order[2], "a2");
}

TEST(SchedulerTest, SchedulersInOneProcessRunConcurrently) {
  // Two single-executor schedulers over their own services, as a fleet's
  // in-process daemons are. Each request's sink waits at a shared
  // rendezvous for the other request; schedulers that shared one
  // executor thread would run them one after the other and time out.
  SimulationService ServiceA, ServiceB;
  server::SchedulerOptions Opts;
  Opts.Workers = 1;
  server::BatchScheduler A(ServiceA, Opts), B(ServiceB, Opts);

  std::mutex M;
  std::condition_variable CV;
  size_t Arrived = 0;
  std::vector<bool> Met;
  auto Rendezvous = [&](const ShotRange &, const std::vector<ShotSummary> &,
                        const std::vector<double> &) {
    std::unique_lock<std::mutex> Lock(M);
    ++Arrived;
    CV.notify_all();
    Met.push_back(CV.wait_for(Lock, std::chrono::seconds(10),
                              [&] { return Arrived >= 2; }));
  };
  TaskSpec Spec = testSpec(1); // one shot: one chunk, one sink call
  uint64_t IdA = A.submit(Spec, "a", nullptr, nullptr, Rendezvous);
  uint64_t IdB = B.submit(Spec, "b", nullptr, nullptr, Rendezvous);
  ASSERT_TRUE(IdA && IdB);
  std::optional<server::RequestOutcome> OutA = A.wait(IdA);
  std::optional<server::RequestOutcome> OutB = B.wait(IdB);
  ASSERT_TRUE(OutA && OutB);
  EXPECT_EQ(OutA->State, server::RequestState::Done);
  EXPECT_EQ(OutB->State, server::RequestState::Done);
  std::lock_guard<std::mutex> Lock(M);
  ASSERT_EQ(Met.size(), 2u);
  EXPECT_TRUE(Met[0]) << "the first request never saw the second one run";
  EXPECT_TRUE(Met[1]);
}

TEST(SchedulerTest, DrainRefusesNewWorkAndFinishesAdmitted) {
  SimulationService Service;
  server::BatchScheduler Sched(Service);
  uint64_t Id = Sched.submit(testSpec(), "c1");
  ASSERT_GT(Id, 0u);
  Sched.drain();
  EXPECT_TRUE(Sched.draining());
  // Admitted work finished during the drain.
  std::optional<server::RequestOutcome> Out = Sched.wait(Id);
  ASSERT_TRUE(Out);
  EXPECT_EQ(Out->State, server::RequestState::Done);

  server::SubmitReject Reject;
  EXPECT_EQ(Sched.submit(testSpec(), "c1", &Reject), 0u);
  EXPECT_EQ(Reject, server::SubmitReject::Draining);
  EXPECT_EQ(Sched.stats().RejectedDraining, 1u);
}

//===----------------------------------------------------------------------===//
// Daemon end-to-end
//===----------------------------------------------------------------------===//

namespace {

/// A live daemon on an ephemeral port with its serve() loop on a thread.
struct TestDaemon {
  SimulationService Service;
  server::Daemon D;
  std::thread Server;
  std::atomic<int> Exit{-1};

  explicit TestDaemon(server::DaemonOptions Opts = {}) : D(Service, Opts) {
    std::string Error;
    Started = D.start(&Error);
    EXPECT_TRUE(Started) << Error;
    if (Started)
      Server = std::thread([this] { Exit = D.serve(); });
  }
  ~TestDaemon() { stop(); }

  /// Requests shutdown and joins serve(); returns its exit code.
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

/// Raw-socket line exchange for the malformed-input tests (the typed
/// client would refuse to send these).
std::optional<Frame> rawRoundTrip(Socket &Sock, const std::string &Line) {
  if (!Sock.sendAll(Line))
    return std::nullopt;
  std::string Response;
  if (Sock.readLine(Response, server::MaxResponseFrameBytes) !=
      Socket::ReadStatus::Line)
    return std::nullopt;
  return server::decodeFrame(Response);
}

std::string errorCode(const std::optional<Frame> &F) {
  if (!F || F->Type != "error")
    return "";
  const json::Value *Code = F->Body.find("code");
  return Code && Code->isString() ? Code->asString() : "";
}

} // namespace

TEST(DaemonTest, RemoteRunIsBitIdenticalToLocal) {
  TaskSpec Spec = testSpec(4);

  // The local reference, exactly as marqsim-cli produces it.
  SimulationService Local;
  TaskSpec LocalSpec = Spec;
  LocalSpec.Evaluate.ExportShotZero = true;
  std::optional<TaskResult> Reference = Local.run(LocalSpec);
  ASSERT_TRUE(Reference);
  const Circuit ReferenceCircuit = Reference->ShotZero.circuit();
  std::ostringstream ReferenceQasm;
  exportQasm(ReferenceCircuit, ReferenceQasm);

  TestDaemon Daemon;
  ASSERT_TRUE(Daemon.Started);
  std::string Error;
  std::optional<server::DaemonClient> Client =
      server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
  ASSERT_TRUE(Client) << Error;
  std::optional<server::RemoteRunResult> Remote =
      Client->runTask(Spec, &Error);
  ASSERT_TRUE(Remote) << Error;

  EXPECT_EQ(Remote->Qasm, ReferenceQasm.str());
  EXPECT_EQ(Remote->Depth, ReferenceCircuit.depth());
  EXPECT_EQ(Remote->Result.Fingerprint, Reference->Fingerprint);
  EXPECT_EQ(Remote->Result.Batch.batchHash(), Reference->Batch.batchHash());
  ASSERT_EQ(Remote->Result.ShotFidelities.size(),
            Reference->ShotFidelities.size());
  for (size_t I = 0; I < Reference->ShotFidelities.size(); ++I)
    EXPECT_EQ(Remote->Result.ShotFidelities[I],
              Reference->ShotFidelities[I])
        << "fidelity bits of shot " << I;
  EXPECT_EQ(Remote->Result.Fidelity.Mean, Reference->Fidelity.Mean);
  // The stats object is the daemon's run accounting, ready for CI.
  const json::Value *Batch = Remote->Stats.find("batch");
  ASSERT_NE(Batch, nullptr);
  EXPECT_EQ(Batch->find("shots")->asInt(), 4);
}

TEST(DaemonTest, RepeatedSubmitsCoalesceOnOneSolve) {
  // Four clients submit the same spec twice each, at once, to a daemon
  // with four executors. Nothing is warmed before run(): the store's
  // single flight alone must hold the solve to one.
  server::DaemonOptions Opts;
  Opts.Scheduler.Workers = 4;
  TestDaemon Daemon(Opts);
  ASSERT_TRUE(Daemon.Started);
  const TaskSpec Spec = testSpec(3);
  constexpr size_t Clients = 4, Rounds = 2;

  std::mutex M;
  std::set<uint64_t> Hashes;
  std::set<std::string> Qasms;
  std::vector<std::string> Errors;
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      std::string Error;
      std::optional<server::DaemonClient> Client =
          server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
      for (size_t R = 0; Client && R < Rounds; ++R) {
        std::optional<server::RemoteRunResult> Out =
            Client->runTask(Spec, &Error);
        std::lock_guard<std::mutex> Lock(M);
        if (!Out)
          break;
        Hashes.insert(Out->Result.Batch.batchHash());
        Qasms.insert(Out->Qasm);
      }
      std::lock_guard<std::mutex> Lock(M);
      if (!Error.empty())
        Errors.push_back(Error);
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &Error : Errors)
    ADD_FAILURE() << Error;
  EXPECT_EQ(Hashes.size(), 1u);
  EXPECT_EQ(Qasms.size(), 1u);

  // The cumulative stats frame proves the one-solve contract: eight full
  // submits, one MCFP solve.
  std::string Error;
  std::optional<server::DaemonClient> Client =
      server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
  ASSERT_TRUE(Client) << Error;
  std::optional<json::Value> Stats = Client->serverStats(&Error);
  ASSERT_TRUE(Stats) << Error;
  const json::Value *Cache = Stats->find("cache");
  ASSERT_NE(Cache, nullptr);
  EXPECT_EQ(Cache->find("gc_solves")->asInt(), 1);
  const json::Value *ServerSection = Stats->find("server");
  ASSERT_NE(ServerSection, nullptr);
  EXPECT_EQ(ServerSection->find("completed")->asInt(),
            static_cast<int64_t>(Clients * Rounds));
}

TEST(DaemonTest, StatsFrameIsV3WithTheTierUnderKernelsOnly) {
  TestDaemon Daemon;
  ASSERT_TRUE(Daemon.Started);
  std::string Error;
  std::optional<server::DaemonClient> Client =
      server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
  ASSERT_TRUE(Client) << Error;
  std::optional<json::Value> Stats = Client->serverStats(&Error);
  ASSERT_TRUE(Stats) << Error;
  const json::Value *Format = Stats->find("format");
  ASSERT_NE(Format, nullptr);
  EXPECT_EQ(Format->asString(), "marqsim-server-stats-v3");
  const json::Value *Kernels = Stats->find("kernels");
  ASSERT_NE(Kernels, nullptr);
  const json::Value *Tier = Kernels->find("tier");
  ASSERT_NE(Tier, nullptr);
  EXPECT_EQ(Tier->asString(), SimulationService::kernelName());
  // The tier appears once, under "kernels".
  EXPECT_EQ(Stats->find("kernel"), nullptr);
  // No body ever leaves a daemon, so v3 dropped the outbound byte count:
  // the fabric section counts only inbound bytes.
  const json::Value *Fabric = Stats->find("fabric");
  ASSERT_NE(Fabric, nullptr);
  ASSERT_NE(Fabric->members(), nullptr);
  std::vector<std::string> Keys;
  for (const auto &M : *Fabric->members())
    Keys.push_back(M.first);
  EXPECT_EQ(Keys, (std::vector<std::string>{
                      "shard_submits", "shard_results", "artifact_gets",
                      "artifact_puts", "artifact_hits", "artifact_misses",
                      "artifact_bytes_in"}));
}

TEST(DaemonTest, StreamedShotsCoverTheBatchInOrder) {
  TestDaemon Daemon;
  ASSERT_TRUE(Daemon.Started);
  std::string Error;
  std::optional<server::DaemonClient> Client =
      server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
  ASSERT_TRUE(Client) << Error;

  std::vector<ShotRange> Ranges;
  TaskSpec Spec = testSpec(4);
  std::optional<server::RemoteRunResult> Out = Client->runTask(
      Spec, &Error, /*Stream=*/true, /*DeadlineMs=*/0,
      [&](const ShotRange &R, size_t Total) {
        EXPECT_EQ(Total, 4u);
        Ranges.push_back(R);
      });
  ASSERT_TRUE(Out) << Error;
  ASSERT_EQ(Ranges.size(), 4u); // default chunk = 1 shot
  size_t Next = 0;
  for (const ShotRange &R : Ranges) {
    EXPECT_EQ(R.Begin, Next);
    Next = R.end();
  }
  EXPECT_EQ(Next, 4u);
}

TEST(DaemonTest, ConnectionSurvivesMalformedFrames) {
  TestDaemon Daemon;
  ASSERT_TRUE(Daemon.Started);
  std::string Error;
  std::optional<Socket> Sock =
      Socket::connectTo("127.0.0.1", Daemon.D.port(), &Error);
  ASSERT_TRUE(Sock) << Error;

  // Garbage, bad version, unknown type, missing spec: each answers an
  // error frame, and the line framing stays intact throughout — the same
  // connection then completes a clean health round trip.
  EXPECT_EQ(errorCode(rawRoundTrip(*Sock, "exterminate\n")), "bad-frame");
  EXPECT_EQ(errorCode(rawRoundTrip(*Sock, "{\"v\":9,\"type\":\"health\"}\n")),
            "version-mismatch");
  EXPECT_EQ(errorCode(rawRoundTrip(*Sock, "{\"v\":1,\"type\":\"warp\"}\n")),
            "unknown-type");
  EXPECT_EQ(errorCode(rawRoundTrip(*Sock, "{\"v\":1,\"type\":\"submit\"}\n")),
            "bad-spec");
  EXPECT_EQ(errorCode(rawRoundTrip(
                *Sock, "{\"v\":1,\"type\":\"submit\",\"spec\":{\"format\":"
                       "\"marqsim-spec-v1\"}}\n")),
            "bad-spec");
  EXPECT_EQ(errorCode(rawRoundTrip(*Sock, "{\"v\":1,\"type\":\"result\"}\n")),
            "bad-frame"); // result without an id
  EXPECT_EQ(
      errorCode(rawRoundTrip(
          *Sock, "{\"v\":1,\"type\":\"result\",\"id\":123456}\n")),
      "not-found");
  // "super" is no artifact type (the superoperator cache was removed):
  // both artifact frames reject it.
  EXPECT_EQ(errorCode(rawRoundTrip(
                *Sock, "{\"v\":1,\"type\":\"artifact-get\",\"atype\":"
                       "\"super\",\"id\":\"super0\"}\n")),
            "bad-frame");
  std::optional<json::Value> SpecJson = testSpec().toJson(&Error);
  ASSERT_TRUE(SpecJson) << Error;
  EXPECT_EQ(errorCode(rawRoundTrip(
                *Sock, server::encodeFrame(
                           "artifact-put", json::Value::object()
                                               .set("spec", *SpecJson)
                                               .set("atype", "super")
                                               .set("id", "super0")
                                               .set("body", "x")))),
            "bad-frame");

  std::optional<Frame> Health =
      rawRoundTrip(*Sock, server::encodeFrame("health"));
  ASSERT_TRUE(Health);
  EXPECT_EQ(Health->Type, "health");
  EXPECT_EQ(Health->Body.find("status")->asString(), "ok");
}

TEST(DaemonTest, OversizedPayloadIsRejectedWithoutCrashing) {
  TestDaemon Daemon;
  ASSERT_TRUE(Daemon.Started);
  std::string Error;
  std::optional<Socket> Sock =
      Socket::connectTo("127.0.0.1", Daemon.D.port(), &Error);
  ASSERT_TRUE(Sock) << Error;

  // One "line" well past MaxRequestFrameBytes, never newline-terminated.
  // The daemon must cut it off with an oversized error (or just close,
  // if our send races its teardown) — and keep serving other clients.
  std::string Giant(server::MaxRequestFrameBytes + (64u << 10), 'x');
  if (Sock->sendAll(Giant)) {
    std::string Line;
    if (Sock->readLine(Line, server::MaxResponseFrameBytes) ==
        Socket::ReadStatus::Line) {
      EXPECT_EQ(errorCode(server::decodeFrame(Line)), "oversized");
    }
  }
  Sock->close();

  std::optional<server::DaemonClient> Client =
      server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
  ASSERT_TRUE(Client) << Error;
  EXPECT_TRUE(Client->health(&Error)) << Error;
}

TEST(DaemonTest, SurvivesMidStreamDisconnects) {
  TestDaemon Daemon;
  ASSERT_TRUE(Daemon.Started);
  std::string Error;

  // Half a frame, no newline, gone.
  {
    std::optional<Socket> Sock =
        Socket::connectTo("127.0.0.1", Daemon.D.port(), &Error);
    ASSERT_TRUE(Sock) << Error;
    ASSERT_TRUE(Sock->sendAll("{\"v\":1,\"type\":\"sub"));
    Sock->close();
  }

  // A submit whose client vanishes before asking for the result: the
  // request still runs to completion and stays queryable from a second
  // connection.
  uint64_t Id = 0;
  {
    std::optional<Socket> Sock =
        Socket::connectTo("127.0.0.1", Daemon.D.port(), &Error);
    ASSERT_TRUE(Sock) << Error;
    json::Value Submit = json::Value::object();
    std::optional<json::Value> SpecJson = testSpec(2).toJson(&Error);
    ASSERT_TRUE(SpecJson) << Error;
    Submit.set("spec", std::move(*SpecJson));
    std::optional<Frame> Accepted =
        rawRoundTrip(*Sock, server::encodeFrame("submit", std::move(Submit)));
    ASSERT_TRUE(Accepted);
    ASSERT_EQ(Accepted->Type, "accepted");
    Id = static_cast<uint64_t>(Accepted->Body.find("id")->asInt());
    Sock->close(); // vanish without collecting
  }

  std::optional<Socket> Probe =
      Socket::connectTo("127.0.0.1", Daemon.D.port(), &Error);
  ASSERT_TRUE(Probe) << Error;
  std::optional<Frame> Result = rawRoundTrip(
      *Probe, server::encodeFrame(
                  "result",
                  json::Value::object().set("id", static_cast<int64_t>(Id))));
  ASSERT_TRUE(Result);
  ASSERT_EQ(Result->Type, "result");
  EXPECT_EQ(Result->Body.find("state")->asString(), "done");
  EXPECT_NE(Result->Body.find("manifest"), nullptr);
}

TEST(DaemonTest, ShutdownFrameDrainsCleanly) {
  TestDaemon Daemon;
  ASSERT_TRUE(Daemon.Started);
  std::string Error;
  std::optional<server::DaemonClient> Client =
      server::DaemonClient::connectTo(Daemon.hostPort(), &Error);
  ASSERT_TRUE(Client) << Error;
  // Work first, so the drain has something to prove.
  ASSERT_TRUE(Client->runTask(testSpec(2), &Error)) << Error;
  EXPECT_TRUE(Client->shutdownServer(&Error)) << Error;
  EXPECT_EQ(Daemon.stop(), 0);
}
