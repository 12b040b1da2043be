//===- shard/ShardManifest.cpp - Portable per-shard result files -------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardManifest.h"

#include "support/Serial.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace marqsim;
using namespace marqsim::serial;

namespace {

// v4 dropped the two superoperator cache counters from the cache line
// (v3 added them with the noise line; v2 had the eval-seconds phase
// accounting). Old-version manifests fail the magic check and their range
// is simply re-run — resume across format versions degrades to
// recompute, never to misparse.
constexpr const char *Magic = "marqsim-shard-v4";

bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = "shard manifest: " + Message;
  return false;
}

} // namespace

uint64_t ShardManifest::rangeHash() const {
  // The same chain as BatchResult::batchHash, windowed to this range: a
  // full batch's hash is the concatenation of its ranges' chains.
  return hashShotSummaries(Shots);
}

std::string ShardManifest::serialize() const {
  std::ostringstream OS;
  OS << Magic << "\n";
  OS << "fingerprint " << hex16(Fingerprint) << "\n";
  OS << "seed " << hex16(Seed) << "\n";
  OS << "spec " << hex16(SpecKey) << "\n";
  OS << "strategy " << StrategyName << "\n";
  OS << "total-shots " << TotalShots << "\n";
  OS << "range " << Range.Begin << " " << Range.Count << "\n";
  OS << "num-samples " << NumSamples << "\n";
  OS << "jobs " << JobsUsed << "\n";
  OS << "eval-seconds " << hex16(doubleBits(EvalSeconds)) << "\n";
  OS << "noise " << noiseChannelName(Noise.Kind) << " "
     << noiseModeName(Noise.Mode) << " " << hex16(doubleBits(Noise.Prob))
     << " " << hex16(doubleBits(Noise.TwoQubitFactor)) << "\n";
  OS << "cache " << Stats.GCSolveHits << " " << Stats.GCSolveMisses << " "
     << Stats.RPSolveHits << " " << Stats.RPSolveMisses << " "
     << Stats.GraphHits << " " << Stats.GraphMisses << " "
     << Stats.EvaluatorHits << " " << Stats.EvaluatorMisses << " "
     << Stats.DiskLoads << "\n";
  OS << "fidelity " << (HasFidelity ? 1 : 0) << "\n";
  OS << "shots " << Shots.size() << "\n";
  for (size_t I = 0; I < Shots.size(); ++I) {
    const ShotSummary &S = Shots[I];
    OS << S.NumSamples << " " << S.Counts.CNOTs << " "
       << S.Counts.SingleQubit << " " << S.Stats.CancelledCNOTs << " "
       << S.Stats.CancelledSingles << " " << hex16(S.SequenceHash);
    if (HasFidelity)
      OS << " " << hex16(doubleBits(Fidelities[I]));
    OS << "\n";
  }
  OS << "range-hash " << hex16(rangeHash()) << "\n";
  return withChecksum(OS.str());
}

std::optional<ShardManifest> ShardManifest::parse(const std::string &Text,
                                                  std::string *Error) {
  // Peel and verify the trailing checksum first: after this, any parse
  // failure means a malformed writer, not on-disk corruption.
  std::string_view Body;
  if (!splitChecksummed(Text, Body)) {
    fail(Error, "checksum mismatch (corrupted or truncated file)");
    return std::nullopt;
  }

  std::istringstream In{std::string(Body)};
  std::string Word;
  if (!(In >> Word) || Word != Magic) {
    fail(Error, "bad magic");
    return std::nullopt;
  }

  ShardManifest M;
  auto ExpectLabel = [&](const char *Label) {
    return static_cast<bool>(In >> Word) && Word == Label;
  };
  auto ReadHex = [&](uint64_t &Out) {
    return static_cast<bool>(In >> Word) && parseHex64(Word, Out);
  };

  size_t FidelityFlag = 0, ShotCount = 0;
  uint64_t EvalSecondsBits = 0, NoiseProbBits = 0, NoiseFactorBits = 0;
  std::string NoiseChannelText, NoiseModeText;
  bool Ok = ExpectLabel("fingerprint") && ReadHex(M.Fingerprint) &&
            ExpectLabel("seed") && ReadHex(M.Seed) &&
            ExpectLabel("spec") && ReadHex(M.SpecKey) &&
            ExpectLabel("strategy") &&
            static_cast<bool>(In >> M.StrategyName) &&
            ExpectLabel("total-shots") &&
            static_cast<bool>(In >> M.TotalShots) && ExpectLabel("range") &&
            static_cast<bool>(In >> M.Range.Begin >> M.Range.Count) &&
            ExpectLabel("num-samples") &&
            static_cast<bool>(In >> M.NumSamples) && ExpectLabel("jobs") &&
            static_cast<bool>(In >> M.JobsUsed) &&
            ExpectLabel("eval-seconds") && ReadHex(EvalSecondsBits) &&
            ExpectLabel("noise") &&
            static_cast<bool>(In >> NoiseChannelText >> NoiseModeText) &&
            ReadHex(NoiseProbBits) && ReadHex(NoiseFactorBits) &&
            ExpectLabel("cache") &&
            static_cast<bool>(
                In >> M.Stats.GCSolveHits >> M.Stats.GCSolveMisses >>
                M.Stats.RPSolveHits >> M.Stats.RPSolveMisses >>
                M.Stats.GraphHits >> M.Stats.GraphMisses >>
                M.Stats.EvaluatorHits >> M.Stats.EvaluatorMisses >>
                M.Stats.DiskLoads) &&
            ExpectLabel("fidelity") &&
            static_cast<bool>(In >> FidelityFlag) && ExpectLabel("shots") &&
            static_cast<bool>(In >> ShotCount);
  if (!Ok) {
    fail(Error, "malformed header");
    return std::nullopt;
  }
  std::optional<NoiseChannelKind> Channel = parseNoiseChannel(NoiseChannelText);
  std::optional<NoiseMode> Mode = parseNoiseMode(NoiseModeText);
  if (!Channel || !Mode) {
    fail(Error, "unknown noise channel or mode");
    return std::nullopt;
  }
  M.Noise.Kind = *Channel;
  M.Noise.Mode = *Mode;
  M.Noise.Prob = bitsToDouble(NoiseProbBits);
  M.Noise.TwoQubitFactor = bitsToDouble(NoiseFactorBits);
  M.EvalSeconds = bitsToDouble(EvalSecondsBits);
  M.HasFidelity = FidelityFlag != 0;
  if (ShotCount != M.Range.Count) {
    fail(Error, "shot count disagrees with the declared range");
    return std::nullopt;
  }
  // Every shot record takes more than a byte, so a count past the text's
  // length is corrupt; rejecting it here keeps a resealed file from
  // sizing the tables below from an arbitrary number.
  if (ShotCount > Body.size()) {
    fail(Error, "shot count exceeds the file");
    return std::nullopt;
  }

  M.Shots.resize(ShotCount);
  if (M.HasFidelity)
    M.Fidelities.resize(ShotCount);
  for (size_t I = 0; I < ShotCount; ++I) {
    ShotSummary &S = M.Shots[I];
    if (!(In >> S.NumSamples >> S.Counts.CNOTs >> S.Counts.SingleQubit >>
          S.Stats.CancelledCNOTs >> S.Stats.CancelledSingles) ||
        !ReadHex(S.SequenceHash)) {
      fail(Error, "malformed shot record");
      return std::nullopt;
    }
    if (M.HasFidelity) {
      uint64_t Bits = 0;
      if (!ReadHex(Bits)) {
        fail(Error, "malformed fidelity record");
        return std::nullopt;
      }
      M.Fidelities[I] = bitsToDouble(Bits);
    }
  }

  uint64_t StoredRangeHash = 0;
  if (!ExpectLabel("range-hash") || !ReadHex(StoredRangeHash)) {
    fail(Error, "missing range hash");
    return std::nullopt;
  }
  if (In >> Word) {
    fail(Error, "trailing garbage");
    return std::nullopt;
  }
  if (StoredRangeHash != M.rangeHash()) {
    fail(Error, "range hash mismatch");
    return std::nullopt;
  }
  return M;
}

bool ShardManifest::writeFile(const std::string &Path,
                              std::string *Error) const {
  // Write-then-rename so a coordinator polling the path never reads a
  // torn file (the same discipline as the component store).
  std::filesystem::path Final(Path);
  std::filesystem::path Tmp = Final;
  Tmp += "." + std::to_string(::getpid()) + ".tmp";
  {
    std::ofstream Out(Tmp);
    if (!Out)
      return fail(Error, "cannot open '" + Tmp.string() + "' for writing");
    Out << serialize();
    if (!Out)
      return fail(Error, "write to '" + Tmp.string() + "' failed");
  }
  std::error_code EC;
  std::filesystem::rename(Tmp, Final, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return fail(Error, "rename to '" + Path + "' failed");
  }
  return true;
}

std::optional<ShardManifest> ShardManifest::readFile(const std::string &Path,
                                                     std::string *Error) {
  std::ifstream In(Path);
  if (!In) {
    fail(Error, "cannot read '" + Path + "'");
    return std::nullopt;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return parse(Buf.str(), Error);
}

ShardManifest ShardManifest::fromTaskResult(const TaskSpec &Spec,
                                            const ShotRange &Range,
                                            const TaskResult &Result) {
  ShardManifest M;
  M.Fingerprint = Result.Fingerprint;
  M.Seed = Spec.Seed;
  M.SpecKey = Spec.contentKey();
  M.StrategyName = Result.Batch.StrategyName;
  M.TotalShots = Spec.Shots;
  M.Range = Range;
  M.NumSamples = Result.NumSamples;
  M.JobsUsed = Result.Batch.JobsUsed;
  M.EvalSeconds = Result.Batch.EvalSeconds;
  M.HasFidelity = Result.HasFidelity;
  M.Noise = Spec.Noise;
  M.Stats = Result.Stats;
  M.Shots = Result.Batch.Shots;
  if (Result.HasFidelity)
    M.Fidelities = Result.ShotFidelities;
  return M;
}
