//===- tests/FuzzTest.cpp - Seeded mutation tests of the input parsers -----===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every byte a daemon reads off a socket goes through json::Value::parse
// and server::decodeFrame, every submitted spec through TaskSpec::fromJson,
// and every shard result a coordinator merges through ShardManifest::parse.
// These tests mutate valid inputs with fixed seeds (bit flips, truncations,
// byte inserts and deletes, one to four of them per mutant) and require
// each mutant to parse to a value or be rejected cleanly: no exception, no
// crash, no hang, and no sanitizer report when built with ASan+UBSan. A
// mutant that parses must also survive a round trip through its writer.
// Each parser runs 20,000 to 60,000 mutants, a fraction of a second in a
// Release build.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"
#include "service/TaskSpec.h"
#include "shard/ShardManifest.h"
#include "support/Json.h"
#include "support/RNG.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace marqsim;

namespace {

/// Bytes worth inserting: the parsers' structural characters, digits,
/// signs and exponents, escapes, whitespace, and bytes outside ASCII.
const char Interesting[] = "{}[]\":,\\-+.eE0123456789 \n\tabfnrtux/\x7f";

/// One to four mutations of \p Seed drawn from \p Rng.
std::string mutate(const std::string &Seed, RNG &Rng) {
  std::string S = Seed;
  const uint64_t Count = 1 + Rng.uniformInt(4);
  for (uint64_t K = 0; K < Count; ++K) {
    switch (Rng.uniformInt(4)) {
    case 0: // flip one bit
      if (!S.empty())
        S[Rng.uniformInt(S.size())] ^=
            static_cast<char>(1u << Rng.uniformInt(8));
      break;
    case 1: // truncate
      S.resize(Rng.uniformInt(S.size() + 1));
      break;
    case 2: { // insert a byte, an interesting one or any
      const char C =
          Rng.bernoulli(0.7)
              ? Interesting[Rng.uniformInt(sizeof(Interesting) - 1)]
              : static_cast<char>(Rng.uniformInt(256));
      S.insert(S.begin() + static_cast<std::ptrdiff_t>(
                               Rng.uniformInt(S.size() + 1)),
               C);
      break;
    }
    default: // delete a run of up to 8 bytes
      if (!S.empty()) {
        const size_t Pos = Rng.uniformInt(S.size());
        S.erase(Pos, 1 + Rng.uniformInt(8));
      }
      break;
    }
  }
  return S;
}

/// Runs \p Check on \p PerSeed mutants of every seed, from a fixed RNG
/// seed, and on each seed unmutated.
template <class CheckFn>
void forEachMutant(const std::vector<std::string> &Seeds, uint64_t RngSeed,
                   size_t PerSeed, CheckFn Check) {
  RNG Rng(RngSeed);
  for (size_t S = 0; S < Seeds.size(); ++S) {
    Check(Seeds[S]);
    for (size_t K = 0; K < PerSeed; ++K) {
      const std::string Mutant = mutate(Seeds[S], Rng);
      SCOPED_TRACE("seed " + std::to_string(S) + ", mutant " +
                   std::to_string(K));
      Check(Mutant);
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

/// JSON documents from the protocol and the parser's own tests.
std::vector<std::string> jsonSeeds() {
  return {
      "{\"i\":-42,\"d\":2.5,\"b\":false,\"n\":null,\"s\":\"a\\u0041\\n\","
      "\"arr\":[1,[2],{\"k\":3}]}",
      "{\"v\":1,\"type\":\"submit\",\"id\":7,\"spec\":{\"version\":4,"
      "\"time\":\"3fe921fb54442d18\",\"terms\":[[\"XXYZ\","
      "\"3fe0000000000000\"],[\"IZZI\",\"bfd3333333333333\"]],"
      "\"shots\":16,\"seed\":\"0000000000007a69\"}}",
      "[1e308,-0,0.5e-3,9223372036854775807,-9223372036854775808,"
      "\"\\ud83d\\ude00\",\"\\\"\\\\\\/\\b\\f\\r\\t\",true,[[[[]]]],{}]",
  };
}

/// A manifest with two shots and fidelities, as a worker writes it.
ShardManifest sampleManifest() {
  ShardManifest M;
  M.Fingerprint = 0x0123456789abcdefULL;
  M.Seed = 31337;
  M.SpecKey = 0xfeedfacecafef00dULL;
  M.StrategyName = "sampling";
  M.TotalShots = 5;
  M.Range = ShotRange{3, 2};
  M.NumSamples = 120;
  M.JobsUsed = 2;
  M.EvalSeconds = 0.25;
  M.HasFidelity = true;
  for (uint64_t K = 0; K < 2; ++K) {
    ShotSummary S;
    S.NumSamples = 120;
    S.Counts.CNOTs = 300 + K;
    S.Counts.SingleQubit = 90 + K;
    S.Stats.CancelledCNOTs = 40 + K;
    S.Stats.CancelledSingles = 12 + K;
    S.SequenceHash = 0x9e3779b97f4a7c15ULL * (K + 1);
    M.Shots.push_back(S);
    M.Fidelities.push_back(0.99 - 0.01 * static_cast<double>(K));
  }
  return M;
}

/// One valid spec per compilation method, as a daemon receives them.
std::vector<std::string> specSeeds() {
  std::vector<std::string> Seeds;
  for (TaskMethod Method :
       {TaskMethod::Sampling, TaskMethod::Trotter,
        TaskMethod::RandomOrderTrotter, TaskMethod::SparSto}) {
    TaskSpec Spec;
    Spec.Source = HamiltonianSource::fromHamiltonian(
        Hamiltonian::parse({{0.9, "XXI"}, {-0.5, "IZZ"}, {0.25, "YIX"}}));
    Spec.Method = Method;
    Spec.Shots = 3;
    Spec.Seed = 2024;
    Spec.Evaluate.FidelityColumns = 2;
    std::optional<json::Value> J = Spec.toJson();
    EXPECT_TRUE(J);
    if (J)
      Seeds.push_back(J->dump());
  }
  return Seeds;
}

} // namespace

TEST(ParserFuzzTest, JsonParseYieldsAValueOrARejection) {
  // Mutants that once broke a check below, kept as seeds: "-0e-3" is the
  // double -0.0, which dump() wrote as "-0", the integer 0 when parsed.
  std::vector<std::string> Seeds = jsonSeeds();
  Seeds.push_back("[1e308,-0e-3,9223372036854775807,-9223372036854775808,"
                  "\"\\ud83d\\ude00\",\"\\\"\\\\\\/\\b\\f\\r\\t\",true,"
                  "[[[[]]]],{}]");
  forEachMutant(Seeds, 0xF022, 20000, [](const std::string &Text) {
    std::optional<json::Value> V;
    std::string Error;
    ASSERT_NO_THROW(V = json::Value::parse(Text, &Error));
    if (!V) {
      EXPECT_FALSE(Error.empty());
      return;
    }
    // The writer's output parses back to the same rendering.
    const std::string Dumped = V->dump();
    std::optional<json::Value> Again;
    ASSERT_NO_THROW(Again = json::Value::parse(Dumped));
    ASSERT_TRUE(Again) << Dumped;
    EXPECT_EQ(Again->dump(), Dumped);
  });
}

TEST(ParserFuzzTest, DecodeFrameYieldsAFrameOrAnErrorCode) {
  std::vector<std::string> Seeds = {
      server::encodeFrame("submit", json::Value::object().set("id", 7)),
      server::encodeFrame("health"),
      server::errorFrame("bad-spec", "spec: missing field \"terms\"", 3),
  };
  for (const std::string &Json : jsonSeeds())
    Seeds.push_back(Json + "\n");
  forEachMutant(Seeds, 0xF023, 8000, [](const std::string &Line) {
    std::optional<server::Frame> F;
    std::string Code, Message;
    ASSERT_NO_THROW(F = server::decodeFrame(Line, &Code, &Message));
    if (!F) {
      EXPECT_TRUE(Code == "bad-frame" || Code == "version-mismatch") << Code;
      return;
    }
    EXPECT_FALSE(F->Type.empty());
    // Re-encoding the frame decodes to the same type and body.
    std::optional<server::Frame> Again;
    ASSERT_NO_THROW(Again = server::decodeFrame(
                        server::encodeFrame(F->Type, F->Body)));
    ASSERT_TRUE(Again);
    EXPECT_EQ(Again->Type, F->Type);
    EXPECT_EQ(Again->Body.dump(), F->Body.dump());
  });
}

TEST(ParserFuzzTest, TaskSpecFromJsonYieldsAValidSpecOrARejection) {
  const std::vector<std::string> Seeds = specSeeds();
  ASSERT_EQ(Seeds.size(), 4u);
  forEachMutant(Seeds, 0xF026, 5000, [](const std::string &Text) {
    std::optional<json::Value> V = json::Value::parse(Text);
    if (!V)
      return; // the JSON parser's own case covers these
    std::optional<TaskSpec> Spec;
    std::string Error;
    ASSERT_NO_THROW(Spec = TaskSpec::fromJson(*V, &Error));
    if (!Spec) {
      EXPECT_FALSE(Error.empty());
      return;
    }
    // An accepted spec is a valid one, and its own frame carries the same
    // content key.
    EXPECT_TRUE(Spec->validate(&Error)) << Error;
    std::optional<json::Value> Again;
    ASSERT_NO_THROW(Again = Spec->toJson(&Error));
    ASSERT_TRUE(Again) << Error;
    std::optional<TaskSpec> Back;
    ASSERT_NO_THROW(Back = TaskSpec::fromJson(*Again, &Error));
    ASSERT_TRUE(Back) << Error;
    EXPECT_EQ(Back->contentKey(), Spec->contentKey());
  });
}

TEST(ParserFuzzTest, ShardManifestParseYieldsAManifestOrARejection) {
  // Raw mutants mostly fail the checksum; resealed ones (the mutated body
  // with a fresh checksum) reach every field parser behind it.
  const std::string Text = sampleManifest().serialize();
  std::string Body;
  ASSERT_TRUE(serial::splitChecksummed(Text, Body));
  const auto Check = [](const std::string &Mutant) {
    std::optional<ShardManifest> M;
    std::string Error;
    ASSERT_NO_THROW(M = ShardManifest::parse(Mutant, &Error));
    if (!M) {
      EXPECT_FALSE(Error.empty());
      return;
    }
    // A manifest that parses writes a file that parses to itself.
    const std::string Again = M->serialize();
    std::optional<ShardManifest> Back;
    ASSERT_NO_THROW(Back = ShardManifest::parse(Again, &Error));
    ASSERT_TRUE(Back) << Error;
    EXPECT_EQ(Back->serialize(), Again);
  };
  forEachMutant({Text}, 0xF024, 5000, Check);
  forEachMutant({Body}, 0xF025, 30000, [&](const std::string &Mutant) {
    Check(serial::withChecksum(Mutant));
  });
}

TEST(ParserFuzzTest, ManifestShotCountBeyondTheFileIsRejected) {
  // A resealed manifest whose range and shot count agree on 2^60 shots:
  // the parser used to size its shot table from the count before reading
  // a record, so this threw std::length_error out of parse() (and a count
  // in the millions allocated its table before failing on the records).
  ShardManifest M = sampleManifest();
  std::string Text = M.serialize();
  std::string Body;
  ASSERT_TRUE(serial::splitChecksummed(Text, Body));
  const std::string Huge = std::to_string(uint64_t(1) << 60);
  for (const auto &[From, To] :
       {std::pair<std::string, std::string>{"range 3 2\n",
                                            "range 3 " + Huge + "\n"},
        {"shots 2\n", "shots " + Huge + "\n"}}) {
    const size_t Pos = Body.find(From);
    ASSERT_NE(Pos, std::string::npos) << From;
    Body.replace(Pos, From.size(), To);
  }
  std::string Error;
  std::optional<ShardManifest> Parsed;
  ASSERT_NO_THROW(Parsed =
                      ShardManifest::parse(serial::withChecksum(Body), &Error));
  EXPECT_FALSE(Parsed);
  EXPECT_NE(Error.find("shot count"), std::string::npos) << Error;
}
