//===- service/TaskSpec.cpp - Declarative simulation task specs --------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/TaskSpec.h"

#include "service/SimulationService.h"
#include "support/Serial.h"

#include <cmath>

using namespace marqsim;

//===----------------------------------------------------------------------===//
// ChannelMix
//===----------------------------------------------------------------------===//

std::optional<ChannelMix> ChannelMix::preset(const std::string &Name) {
  if (Name == "baseline")
    return ChannelMix{1.0, 0.0, 0.0};
  if (Name == "gc")
    return ChannelMix{0.4, 0.6, 0.0};
  if (Name == "gc-rp")
    return ChannelMix{0.4, 0.3, 0.3};
  return std::nullopt;
}

bool ChannelMix::normalize() {
  // The negated comparisons also reject NaN weights (NaN < 0.0 is false,
  // so the old form waved them straight through to the samplers).
  if (!(WQd >= 0.0) || !(WGc >= 0.0) || !(WRp >= 0.0))
    return false;
  double Sum = sum();
  if (!(Sum > 0.0) || !std::isfinite(Sum))
    return false;
  WQd /= Sum;
  WGc /= Sum;
  WRp /= Sum;
  return true;
}

std::optional<ChannelMix>
marqsim::parseChannelMix(const CommandLine &CL, std::string *Error) {
  std::string Name = CL.getString("config", "gc");
  std::optional<ChannelMix> Mix = ChannelMix::preset(Name);
  if (!Mix) {
    detail::fail(Error, "unknown config '" + Name + "'");
    return std::nullopt;
  }
  if (CL.has("qd") || CL.has("gc") || CL.has("rp")) {
    Mix->WQd = CL.getDouble("qd", 0.0);
    Mix->WGc = CL.getDouble("gc", 0.0);
    Mix->WRp = CL.getDouble("rp", 0.0);
    // Diagnose the exact violation instead of renormalizing nonsense:
    // a negative (or NaN) weight is not a distribution, and an all-zero
    // override selects nothing.
    const struct {
      const char *Flag;
      double W;
    } Weights[] = {{"--qd", Mix->WQd}, {"--gc", Mix->WGc}, {"--rp", Mix->WRp}};
    for (const auto &Entry : Weights)
      if (!(Entry.W >= 0.0) || !std::isfinite(Entry.W)) {
        detail::fail(Error, std::string(Entry.Flag) +
                                " must be a non-negative finite weight");
        return std::nullopt;
      }
    if (!(Mix->sum() > 0.0)) {
      detail::fail(Error, "channel weights --qd/--gc/--rp are all zero; at "
                          "least one must be positive");
      return std::nullopt;
    }
    Mix->normalize();
  }
  return Mix;
}

//===----------------------------------------------------------------------===//
// TaskSpec
//===----------------------------------------------------------------------===//

bool TaskSpec::validate(std::string *Error) const {
  if (Shots < 1)
    return detail::fail(Error, "a task needs at least one shot");
  // !(x > 0) instead of x <= 0: NaN fails every comparison, so the old
  // form accepted --time=nan.
  if (!(Time > 0.0) || !std::isfinite(Time))
    return detail::fail(Error, "evolution time must be positive and finite");
  if (Noise.Kind != NoiseChannelKind::None) {
    if (!(Noise.Prob >= 0.0) || !(Noise.Prob <= 1.0))
      return detail::fail(Error,
                          "noise probability must be in [0, 1]");
    if (!(Noise.TwoQubitFactor > 0.0) || !std::isfinite(Noise.TwoQubitFactor))
      return detail::fail(Error,
                          "noise 2-qubit factor must be positive and finite");
    if (Noise.enabled() && Evaluate.FidelityColumns == 0)
      return detail::fail(Error,
                          "noise only affects fidelity evaluation; enable it "
                          "with --columns=N");
  }
  switch (Method) {
  case TaskMethod::Sampling: {
    if (!(Epsilon > 0.0) || !std::isfinite(Epsilon))
      return detail::fail(Error,
                          "target precision epsilon must be positive and "
                          "finite");
    ChannelMix Copy = Mix;
    if (!Copy.normalize())
      return detail::fail(Error, "channel weights must be non-negative with a "
                         "positive sum");
    if (Copy.WRp > 0.0 && PerturbRounds < 1)
      return detail::fail(Error, "a positive Prp weight needs at least one "
                         "perturbation round");
    break;
  }
  case TaskMethod::Trotter:
    if (TrotterOrder != 1 && TrotterOrder != 2 && TrotterOrder != 4)
      return detail::fail(Error, "supported Trotter orders: 1, 2, 4");
    [[fallthrough]];
  case TaskMethod::RandomOrderTrotter:
  case TaskMethod::SparSto:
    if (TrotterReps < 1)
      return detail::fail(Error, "Trotter-family methods need at least one "
                         "repetition");
    if (Method == TaskMethod::SparSto &&
        (!(SparStoKeepScale > 0.0) || !std::isfinite(SparStoKeepScale)))
      return detail::fail(Error,
                          "SparSto keep scale must be positive and finite");
    break;
  }
  return true;
}

uint64_t TaskSpec::contentKey() const {
  using namespace serial;
  uint64_t H = FNVOffset;
  H = fnv1aWord(static_cast<uint64_t>(Method), H);
  H = fnv1aWord(doubleBits(Time), H);
  H = fnv1aWord(Lowering.Emit.CrossCancellation ? 1 : 0, H);
  // The retired lowering.use_cdf_sampler slot: always 0, so keys minted
  // while it existed stay valid.
  H = fnv1aWord(0, H);
  H = fnv1aWord(Evaluate.FidelityColumns, H);
  H = fnv1aWord(Evaluate.ColumnSeed, H);
  // Noise participates only when enabled, so every noiseless key
  // (goldens, manifests, cache files) minted before the noisy tier existed
  // stays valid.
  if (Noise.enabled()) {
    H = fnv1aWord(static_cast<uint64_t>(Noise.Kind), H);
    H = fnv1aWord(doubleBits(Noise.Prob), H);
    H = fnv1aWord(doubleBits(Noise.TwoQubitFactor), H);
    H = fnv1aWord(static_cast<uint64_t>(Noise.Mode), H);
  }
  // Only the active method's knobs participate: an unused TrotterReps on
  // a sampling task cannot change its bits, so it must not change its key.
  switch (Method) {
  case TaskMethod::Sampling:
    H = fnv1aWord(doubleBits(Mix.WQd), H);
    H = fnv1aWord(doubleBits(Mix.WGc), H);
    H = fnv1aWord(doubleBits(Mix.WRp), H);
    H = fnv1aWord(PerturbRounds, H);
    H = fnv1aWord(PerturbSeed, H);
    H = fnv1aWord(static_cast<uint64_t>(Flow.ProbScale), H);
    H = fnv1aWord(static_cast<uint64_t>(Flow.CostScale), H);
    H = fnv1aWord(doubleBits(Epsilon), H);
    // The retired CDF sampler slot, always 0 like the lowering one above.
    H = fnv1aWord(0, H);
    break;
  case TaskMethod::Trotter:
    H = fnv1aWord(TrotterReps, H);
    H = fnv1aWord(TrotterOrder, H);
    H = fnv1aWord(static_cast<uint64_t>(Order), H);
    break;
  case TaskMethod::RandomOrderTrotter:
    H = fnv1aWord(TrotterReps, H);
    break;
  case TaskMethod::SparSto:
    H = fnv1aWord(TrotterReps, H);
    H = fnv1aWord(doubleBits(SparStoKeepScale), H);
    break;
  }
  return H;
}

std::optional<TaskSpec> TaskSpec::fromCommandLine(const CommandLine &CL,
                                                  std::string *Error) {
  TaskSpec Spec;

  // Hamiltonian source: one positional file path or --model=NAME.
  if (CL.has("model")) {
    if (!CL.positionals().empty()) {
      detail::fail(Error, "give either a Hamiltonian file or --model, not both");
      return std::nullopt;
    }
    Spec.Source = HamiltonianSource::fromModel(CL.getString("model"));
  } else if (CL.positionals().size() == 1) {
    Spec.Source = HamiltonianSource::fromFile(CL.positionals()[0]);
  } else {
    detail::fail(Error, "expected exactly one Hamiltonian file (or --model=NAME)");
    return std::nullopt;
  }

  std::optional<ChannelMix> Mix = parseChannelMix(CL, Error);
  if (!Mix)
    return std::nullopt;
  Spec.Mix = *Mix;

  Spec.Time = CL.getDouble("time", Spec.Time);
  if (!(Spec.Time > 0.0) || !std::isfinite(Spec.Time)) {
    detail::fail(Error, "--time must be positive and finite");
    return std::nullopt;
  }
  Spec.Epsilon = CL.getDouble("epsilon", Spec.Epsilon);
  if (!(Spec.Epsilon > 0.0) || !std::isfinite(Spec.Epsilon)) {
    detail::fail(Error, "--epsilon must be positive and finite");
    return std::nullopt;
  }

  // Integer flags: every count/seed is parsed signed and range-checked
  // before the unsigned narrowing (a bare cast would turn --rounds=-3
  // into ~4 billion perturbation rounds).
  int64_t Rounds = CL.getInt("rounds", Spec.PerturbRounds);
  if (Rounds < 0) {
    detail::fail(Error, "--rounds must be non-negative");
    return std::nullopt;
  }
  Spec.PerturbRounds = static_cast<unsigned>(Rounds);

  int64_t Seed = CL.getInt("seed", static_cast<int64_t>(Spec.Seed));
  if (Seed < 0) {
    detail::fail(Error, "--seed must be non-negative");
    return std::nullopt;
  }
  Spec.Seed = static_cast<uint64_t>(Seed);

  int64_t PerturbSeed =
      CL.getInt("perturb-seed", static_cast<int64_t>(Spec.PerturbSeed));
  if (PerturbSeed < 0) {
    detail::fail(Error, "--perturb-seed must be non-negative");
    return std::nullopt;
  }
  Spec.PerturbSeed = static_cast<uint64_t>(PerturbSeed);

  int64_t Shots = CL.getInt("shots", 1);
  if (Shots < 1) {
    detail::fail(Error, "--shots must be at least 1");
    return std::nullopt;
  }
  Spec.Shots = static_cast<size_t>(Shots);

  int64_t Jobs = CL.getInt("jobs", 1);
  if (Jobs < 0) {
    detail::fail(Error, "--jobs must be non-negative (0 = all cores)");
    return std::nullopt;
  }
  Spec.Jobs = static_cast<unsigned>(Jobs);

  int64_t EvalJobs = CL.getInt("eval-jobs", 1);
  if (EvalJobs < 0) {
    detail::fail(Error, "--eval-jobs must be non-negative (0 = all cores)");
    return std::nullopt;
  }
  Spec.EvalJobs = static_cast<unsigned>(EvalJobs);

  int64_t Columns = CL.getInt("columns", 0);
  if (Columns < 0) {
    detail::fail(Error, "--columns must be non-negative");
    return std::nullopt;
  }
  Spec.Evaluate.FidelityColumns = static_cast<size_t>(Columns);

  const std::string NoiseName = CL.getString("noise", "none");
  std::optional<NoiseChannelKind> Channel = parseNoiseChannel(NoiseName);
  if (!Channel) {
    detail::fail(Error, "--noise must be none, depolarizing, phase-flip, or "
                        "amplitude-damping (got '" +
                            NoiseName + "')");
    return std::nullopt;
  }
  Spec.Noise.Kind = *Channel;
  if (Spec.Noise.Kind == NoiseChannelKind::None &&
      (CL.has("noise-prob") || CL.has("noise-2q-factor") ||
       CL.has("noise-mode"))) {
    detail::fail(Error, "--noise-prob/--noise-2q-factor/--noise-mode have no "
                        "effect without --noise=MODEL");
    return std::nullopt;
  }
  Spec.Noise.Prob = CL.getDouble("noise-prob", Spec.Noise.Prob);
  if (!(Spec.Noise.Prob >= 0.0) || !(Spec.Noise.Prob <= 1.0)) {
    detail::fail(Error, "--noise-prob must be a probability in [0, 1]");
    return std::nullopt;
  }
  Spec.Noise.TwoQubitFactor =
      CL.getDouble("noise-2q-factor", Spec.Noise.TwoQubitFactor);
  if (!(Spec.Noise.TwoQubitFactor > 0.0) ||
      !std::isfinite(Spec.Noise.TwoQubitFactor)) {
    detail::fail(Error, "--noise-2q-factor must be positive and finite");
    return std::nullopt;
  }
  const std::string ModeName = CL.getString("noise-mode", "stochastic");
  std::optional<NoiseMode> Mode = parseNoiseMode(ModeName);
  if (!Mode) {
    detail::fail(Error, "--noise-mode must be stochastic or density (got '" +
                            ModeName + "')");
    return std::nullopt;
  }
  Spec.Noise.Mode = *Mode;
  return Spec;
}

//===----------------------------------------------------------------------===//
// JSON transport
//===----------------------------------------------------------------------===//
//
// The spec travels as "marqsim-spec-v1". The design rule mirrors the
// shard manifests: anything whose *bits* matter downstream — doubles that
// feed contentKey/fingerprint, 64-bit seeds — is a hex16 string, never a
// JSON number. Human-scale counts (shots, reps, columns) are plain ints.

namespace {

const char *methodName(TaskMethod M) {
  switch (M) {
  case TaskMethod::Sampling:
    return "sampling";
  case TaskMethod::Trotter:
    return "trotter";
  case TaskMethod::RandomOrderTrotter:
    return "random-order-trotter";
  case TaskMethod::SparSto:
    return "sparsto";
  }
  return "sampling";
}

std::optional<TaskMethod> parseMethodName(const std::string &Name) {
  if (Name == "sampling")
    return TaskMethod::Sampling;
  if (Name == "trotter")
    return TaskMethod::Trotter;
  if (Name == "random-order-trotter")
    return TaskMethod::RandomOrderTrotter;
  if (Name == "sparsto")
    return TaskMethod::SparSto;
  return std::nullopt;
}

const char *orderName(TermOrderKind K) {
  switch (K) {
  case TermOrderKind::Given:
    return "given";
  case TermOrderKind::Lexicographic:
    return "lexicographic";
  case TermOrderKind::MagnitudeDescending:
    return "magnitude-descending";
  case TermOrderKind::GreedyMatched:
    return "greedy-matched";
  }
  return "given";
}

std::optional<TermOrderKind> parseOrderName(const std::string &Name) {
  if (Name == "given")
    return TermOrderKind::Given;
  if (Name == "lexicographic")
    return TermOrderKind::Lexicographic;
  if (Name == "magnitude-descending")
    return TermOrderKind::MagnitudeDescending;
  if (Name == "greedy-matched")
    return TermOrderKind::GreedyMatched;
  return std::nullopt;
}

json::Value hexDouble(double D) { return serial::hex16(serial::doubleBits(D)); }
json::Value hexWord(uint64_t W) { return serial::hex16(W); }

/// Reads a hex16-encoded word member. False + Error on absence or
/// malformed hex (missing members are never defaulted: a frame that lost
/// a field must fail loudly, not run a subtly different task).
bool readHexWord(const json::Value &Obj, const char *Key, uint64_t &Out,
                 std::string *Error) {
  const json::Value *V = Obj.find(Key);
  if (!V || !V->isString())
    return detail::fail(Error, std::string("spec json: missing or non-string '") +
                                   Key + "'");
  if (V->asString().size() != 16 || !serial::parseHex64(V->asString(), Out))
    return detail::fail(Error, std::string("spec json: bad hex16 in '") + Key +
                                   "'");
  return true;
}

bool readHexDouble(const json::Value &Obj, const char *Key, double &Out,
                   std::string *Error) {
  uint64_t Bits = 0;
  if (!readHexWord(Obj, Key, Bits, Error))
    return false;
  Out = serial::bitsToDouble(Bits);
  return true;
}

bool readInt(const json::Value &Obj, const char *Key, int64_t Min,
             int64_t &Out, std::string *Error) {
  const json::Value *V = Obj.find(Key);
  if (!V || V->kind() != json::Value::Kind::Int)
    return detail::fail(Error, std::string("spec json: missing or non-integer '") +
                                   Key + "'");
  if (V->asInt() < Min)
    return detail::fail(Error, std::string("spec json: '") + Key +
                                   "' below minimum");
  Out = V->asInt();
  return true;
}

bool readBool(const json::Value &Obj, const char *Key, bool &Out,
              std::string *Error) {
  const json::Value *V = Obj.find(Key);
  if (!V || V->kind() != json::Value::Kind::Bool)
    return detail::fail(Error, std::string("spec json: missing or non-bool '") +
                                   Key + "'");
  Out = V->asBool();
  return true;
}

/// A retired switch that peers still send: it must be present and false.
/// \p Path names it in the message (the key with its parent object).
bool readRetiredFalse(const json::Value &Obj, const char *Key,
                      const char *Path, std::string *Error) {
  bool On = false;
  if (!readBool(Obj, Key, On, Error))
    return false;
  if (On)
    return detail::fail(Error, std::string("spec json: '") + Path +
                                   "' is no longer supported");
  return true;
}

bool readString(const json::Value &Obj, const char *Key, std::string &Out,
                std::string *Error) {
  const json::Value *V = Obj.find(Key);
  if (!V || !V->isString())
    return detail::fail(Error, std::string("spec json: missing or non-string '") +
                                   Key + "'");
  Out = V->asString();
  return true;
}

} // namespace

std::optional<json::Value> TaskSpec::toJson(std::string *Error) const {
  // Resolve the source now, uncanonicalized: files and registry models
  // become inline terms the receiver can use without touching any
  // filesystem, and the raw term order is preserved so the Trotter
  // family's TermOrderKind::Given keeps its meaning. Both sides then
  // canonicalize (or not) identically inside SimulationService::run.
  std::optional<Hamiltonian> H =
      SimulationService::resolveHamiltonian(Source, Error,
                                            /*Canonicalize=*/false);
  if (!H)
    return std::nullopt;

  json::Value Ham = json::Value::object();
  Ham.set("qubits", H->numQubits());
  json::Value Terms = json::Value::array();
  for (const PauliTerm &T : H->terms()) {
    json::Value Term = json::Value::array();
    Term.push(hexDouble(T.Coeff));
    Term.push(T.String.str(H->numQubits()));
    Terms.push(std::move(Term));
  }
  Ham.set("terms", std::move(Terms));

  json::Value V = json::Value::object();
  V.set("format", "marqsim-spec-v1");
  V.set("hamiltonian", std::move(Ham));
  V.set("method", methodName(Method));
  V.set("time", hexDouble(Time));
  V.set("epsilon", hexDouble(Epsilon));
  V.set("mix", json::Value::object()
                   .set("qd", hexDouble(Mix.WQd))
                   .set("gc", hexDouble(Mix.WGc))
                   .set("rp", hexDouble(Mix.WRp)));
  V.set("perturb_rounds", PerturbRounds);
  V.set("perturb_seed", hexWord(PerturbSeed));
  V.set("flow", json::Value::object()
                    .set("prob_scale", Flow.ProbScale)
                    .set("cost_scale", Flow.CostScale));
  // Retired like lowering.use_cdf_sampler below.
  V.set("use_cdf", false);
  V.set("trotter_reps", TrotterReps);
  V.set("trotter_order", TrotterOrder);
  V.set("term_order", orderName(Order));
  V.set("sparsto_keep_scale", hexDouble(SparStoKeepScale));
  V.set("shots", static_cast<int64_t>(Shots));
  V.set("jobs", Jobs);
  V.set("eval_jobs", EvalJobs);
  V.set("seed", hexWord(Seed));
  V.set("noise", json::Value::object()
                     .set("channel", noiseChannelName(Noise.Kind))
                     .set("mode", noiseModeName(Noise.Mode))
                     .set("prob", hexDouble(Noise.Prob))
                     .set("two_qubit_factor",
                          hexDouble(Noise.TwoQubitFactor)));
  V.set("lowering", json::Value::object()
                        .set("cross_cancellation",
                             Lowering.Emit.CrossCancellation)
                        // Retired; peers that predate its removal still
                        // require the field.
                        .set("use_cdf_sampler", false));
  V.set("evaluate",
        json::Value::object()
            .set("fidelity_columns",
                 static_cast<int64_t>(Evaluate.FidelityColumns))
            .set("column_seed", hexWord(Evaluate.ColumnSeed))
            .set("export_shot_zero", Evaluate.ExportShotZero)
            .set("dump_dot", Evaluate.DumpDot)
            .set("keep_results", Evaluate.KeepResults));
  return V;
}

std::optional<TaskSpec> TaskSpec::fromJson(const json::Value &V,
                                           std::string *Error) {
  if (!V.isObject()) {
    detail::fail(Error, "spec json: expected an object");
    return std::nullopt;
  }
  std::string Format;
  if (!readString(V, "format", Format, Error))
    return std::nullopt;
  if (Format != "marqsim-spec-v1") {
    detail::fail(Error, "spec json: unsupported format '" + Format + "'");
    return std::nullopt;
  }

  TaskSpec Spec;

  const json::Value *Ham = V.find("hamiltonian");
  if (!Ham || !Ham->isObject()) {
    detail::fail(Error, "spec json: missing 'hamiltonian' object");
    return std::nullopt;
  }
  int64_t Qubits = 0;
  if (!readInt(*Ham, "qubits", 1, Qubits, Error))
    return std::nullopt;
  if (Qubits > 64) {
    detail::fail(Error, "spec json: qubit count above 64");
    return std::nullopt;
  }
  const json::Value *Terms = Ham->find("terms");
  if (!Terms || !Terms->isArray() || Terms->size() == 0) {
    detail::fail(Error, "spec json: missing or empty 'hamiltonian.terms'");
    return std::nullopt;
  }
  Hamiltonian H(static_cast<unsigned>(Qubits));
  for (size_t I = 0; I < Terms->size(); ++I) {
    const json::Value &Term = Terms->at(I);
    if (!Term.isArray() || Term.size() != 2 || !Term.at(0).isString() ||
        !Term.at(1).isString()) {
      detail::fail(Error, "spec json: each term must be [coeff-hex, paulis]");
      return std::nullopt;
    }
    uint64_t Bits = 0;
    if (Term.at(0).asString().size() != 16 ||
        !serial::parseHex64(Term.at(0).asString(), Bits)) {
      detail::fail(Error, "spec json: bad coefficient hex in term");
      return std::nullopt;
    }
    const std::string &Text = Term.at(1).asString();
    std::optional<PauliString> P = PauliString::parse(Text);
    if (!P || Text.size() != static_cast<size_t>(Qubits)) {
      detail::fail(Error, "spec json: malformed Pauli string '" + Text + "'");
      return std::nullopt;
    }
    H.addTerm(serial::bitsToDouble(Bits), *P);
  }
  if (H.empty()) {
    detail::fail(Error, "spec json: Hamiltonian has no nonzero terms");
    return std::nullopt;
  }
  Spec.Source = HamiltonianSource::fromHamiltonian(std::move(H));

  std::string MethodText;
  if (!readString(V, "method", MethodText, Error))
    return std::nullopt;
  std::optional<TaskMethod> M = parseMethodName(MethodText);
  if (!M) {
    detail::fail(Error, "spec json: unknown method '" + MethodText + "'");
    return std::nullopt;
  }
  Spec.Method = *M;

  if (!readHexDouble(V, "time", Spec.Time, Error) ||
      !readHexDouble(V, "epsilon", Spec.Epsilon, Error))
    return std::nullopt;

  const json::Value *MixObj = V.find("mix");
  if (!MixObj || !MixObj->isObject()) {
    detail::fail(Error, "spec json: missing 'mix' object");
    return std::nullopt;
  }
  if (!readHexDouble(*MixObj, "qd", Spec.Mix.WQd, Error) ||
      !readHexDouble(*MixObj, "gc", Spec.Mix.WGc, Error) ||
      !readHexDouble(*MixObj, "rp", Spec.Mix.WRp, Error))
    return std::nullopt;

  int64_t Tmp = 0;
  if (!readInt(V, "perturb_rounds", 0, Tmp, Error))
    return std::nullopt;
  Spec.PerturbRounds = static_cast<unsigned>(Tmp);
  if (!readHexWord(V, "perturb_seed", Spec.PerturbSeed, Error))
    return std::nullopt;

  const json::Value *Flow = V.find("flow");
  if (!Flow || !Flow->isObject()) {
    detail::fail(Error, "spec json: missing 'flow' object");
    return std::nullopt;
  }
  if (!readInt(*Flow, "prob_scale", 1, Spec.Flow.ProbScale, Error) ||
      !readInt(*Flow, "cost_scale", 1, Spec.Flow.CostScale, Error))
    return std::nullopt;

  if (!readRetiredFalse(V, "use_cdf", "use_cdf", Error))
    return std::nullopt;
  if (!readInt(V, "trotter_reps", 0, Tmp, Error))
    return std::nullopt;
  Spec.TrotterReps = static_cast<unsigned>(Tmp);
  if (!readInt(V, "trotter_order", 0, Tmp, Error))
    return std::nullopt;
  Spec.TrotterOrder = static_cast<unsigned>(Tmp);

  std::string OrderText;
  if (!readString(V, "term_order", OrderText, Error))
    return std::nullopt;
  std::optional<TermOrderKind> Order = parseOrderName(OrderText);
  if (!Order) {
    detail::fail(Error, "spec json: unknown term order '" + OrderText + "'");
    return std::nullopt;
  }
  Spec.Order = *Order;

  if (!readHexDouble(V, "sparsto_keep_scale", Spec.SparStoKeepScale, Error))
    return std::nullopt;

  if (!readInt(V, "shots", 1, Tmp, Error))
    return std::nullopt;
  Spec.Shots = static_cast<size_t>(Tmp);
  if (!readInt(V, "jobs", 0, Tmp, Error))
    return std::nullopt;
  Spec.Jobs = static_cast<unsigned>(Tmp);
  if (!readInt(V, "eval_jobs", 0, Tmp, Error))
    return std::nullopt;
  Spec.EvalJobs = static_cast<unsigned>(Tmp);
  if (!readHexWord(V, "seed", Spec.Seed, Error))
    return std::nullopt;

  // "precision" is optional: peers built while an FP32 tier existed send
  // "fp64". Any other value asks for a tier this build does not have, so
  // it is rejected instead of being evaluated in FP64.
  if (V.find("precision")) {
    std::string PrecText;
    if (!readString(V, "precision", PrecText, Error))
      return std::nullopt;
    if (PrecText != "fp64") {
      detail::fail(Error, "spec json: unknown precision '" + PrecText + "'");
      return std::nullopt;
    }
  }

  // "noise" is optional: v1 frames minted before the noisy tier carry no
  // noise object, and its absence means exactly what the default spec
  // means — noiseless. When present, every field is required.
  if (const json::Value *Noise = V.find("noise")) {
    if (!Noise->isObject()) {
      detail::fail(Error, "spec json: 'noise' must be an object");
      return std::nullopt;
    }
    std::string ChannelText, ModeText;
    if (!readString(*Noise, "channel", ChannelText, Error) ||
        !readString(*Noise, "mode", ModeText, Error))
      return std::nullopt;
    std::optional<NoiseChannelKind> Channel = parseNoiseChannel(ChannelText);
    if (!Channel) {
      detail::fail(Error,
                   "spec json: unknown noise channel '" + ChannelText + "'");
      return std::nullopt;
    }
    Spec.Noise.Kind = *Channel;
    std::optional<NoiseMode> Mode = parseNoiseMode(ModeText);
    if (!Mode) {
      detail::fail(Error, "spec json: unknown noise mode '" + ModeText + "'");
      return std::nullopt;
    }
    Spec.Noise.Mode = *Mode;
    if (!readHexDouble(*Noise, "prob", Spec.Noise.Prob, Error) ||
        !readHexDouble(*Noise, "two_qubit_factor", Spec.Noise.TwoQubitFactor,
                       Error))
      return std::nullopt;
  }

  const json::Value *Lowering = V.find("lowering");
  if (!Lowering || !Lowering->isObject()) {
    detail::fail(Error, "spec json: missing 'lowering' object");
    return std::nullopt;
  }
  if (!readBool(*Lowering, "cross_cancellation",
                Spec.Lowering.Emit.CrossCancellation, Error) ||
      !readRetiredFalse(*Lowering, "use_cdf_sampler",
                        "lowering.use_cdf_sampler", Error))
    return std::nullopt;

  const json::Value *Eval = V.find("evaluate");
  if (!Eval || !Eval->isObject()) {
    detail::fail(Error, "spec json: missing 'evaluate' object");
    return std::nullopt;
  }
  if (!readInt(*Eval, "fidelity_columns", 0, Tmp, Error))
    return std::nullopt;
  Spec.Evaluate.FidelityColumns = static_cast<size_t>(Tmp);
  if (!readHexWord(*Eval, "column_seed", Spec.Evaluate.ColumnSeed, Error))
    return std::nullopt;
  if (!readBool(*Eval, "export_shot_zero", Spec.Evaluate.ExportShotZero,
                Error) ||
      !readBool(*Eval, "dump_dot", Spec.Evaluate.DumpDot, Error) ||
      !readBool(*Eval, "keep_results", Spec.Evaluate.KeepResults, Error))
    return std::nullopt;

  if (!Spec.validate(Error))
    return std::nullopt;
  return Spec;
}
