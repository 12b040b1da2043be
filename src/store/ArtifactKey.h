//===- store/ArtifactKey.h - Typed content-hash artifact keys ---*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The key vocabulary of the ArtifactStore. Every cacheable artifact in the
/// pipeline's deterministic prefix is a pure content function of the
/// Hamiltonian fingerprint plus the knobs that shape it, so its identity is
/// a typed key: an ArtifactType naming what the payload is, and an Id
/// string encoding the content hash (fingerprint and knobs as fixed-width
/// hex via support/Serial.h). Ids are file-name safe; the disk tier maps
/// each type to its own extension so a cache directory is inspectable at a
/// glance.
///
///   type              | keyed on
///   ------------------+----------------------------------------------------
///   ComponentMatrix   | gc: (fingerprint, MCFPOptions)
///                     | rp: (fingerprint, MCFPOptions, rounds, perturb seed)
///   AliasBundle       | (fingerprint, mix weights, MCFPOptions, rounds,
///                     |  perturb seed, sampler kind)
///   FidelityColumns   | (fingerprint, time, columns, column seed)
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_STORE_ARTIFACTKEY_H
#define MARQSIM_STORE_ARTIFACTKEY_H

#include "core/TransitionBuilders.h"
#include "support/Serial.h"

#include <optional>
#include <string>

namespace marqsim {

/// What kind of payload a key names. The type decides the disk codec and
/// file extension; the Id carries the content hash.
enum class ArtifactType {
  /// One MCFP component transition matrix (Pgc or Prp).
  ComponentMatrix,
  /// A combined transition matrix ready to back an HTT graph + sampling
  /// tables (the channel-mix combination of the components).
  AliasBundle,
  /// Precomputed exact fidelity target columns e^{iHt}|x>.
  FidelityColumns,
};

/// File extension of \p Type in the disk tier.
inline const char *artifactExtension(ArtifactType Type) {
  switch (Type) {
  case ArtifactType::ComponentMatrix:
    return ".mat";
  case ArtifactType::AliasBundle:
    return ".alias";
  case ArtifactType::FidelityColumns:
    return ".fid";
  }
  return ".artifact";
}

/// Wire spelling of \p Type — the "type" member of the daemon protocol's
/// artifact-get/artifact-put frames.
inline const char *artifactTypeName(ArtifactType Type) {
  switch (Type) {
  case ArtifactType::ComponentMatrix:
    return "component";
  case ArtifactType::AliasBundle:
    return "alias";
  case ArtifactType::FidelityColumns:
    return "fidelity";
  }
  return "component";
}

/// Inverse of artifactTypeName. std::nullopt for unknown spellings.
inline std::optional<ArtifactType>
artifactTypeFromName(const std::string &Name) {
  if (Name == "component")
    return ArtifactType::ComponentMatrix;
  if (Name == "alias")
    return ArtifactType::AliasBundle;
  if (Name == "fidelity")
    return ArtifactType::FidelityColumns;
  return std::nullopt;
}

/// A typed content-hash key. Ids are unique across types (each key builder
/// prefixes its own tag), so Id alone addresses the in-memory tier; the
/// type adds the disk-tier file extension.
struct ArtifactKey {
  ArtifactType Type = ArtifactType::ComponentMatrix;
  std::string Id;

  /// File name of this artifact in a cache directory.
  std::string fileName() const { return Id + artifactExtension(Type); }
};

namespace store {

inline void appendHex(std::string &S, uint64_t V) {
  S += '-';
  S += serial::hex16(V);
}

/// Key of the gate-cancellation MCFP solve.
inline ArtifactKey componentKeyGC(uint64_t Fingerprint,
                                  const MCFPOptions &Flow) {
  std::string Id = "gc";
  appendHex(Id, Fingerprint);
  appendHex(Id, static_cast<uint64_t>(Flow.ProbScale));
  appendHex(Id, static_cast<uint64_t>(Flow.CostScale));
  return {ArtifactType::ComponentMatrix, std::move(Id)};
}

/// Key of the random-perturbation MCFP solve.
inline ArtifactKey componentKeyRP(uint64_t Fingerprint,
                                  const MCFPOptions &Flow, unsigned Rounds,
                                  uint64_t PerturbSeed) {
  std::string Id = "rp";
  appendHex(Id, Fingerprint);
  appendHex(Id, static_cast<uint64_t>(Flow.ProbScale));
  appendHex(Id, static_cast<uint64_t>(Flow.CostScale));
  appendHex(Id, Rounds);
  appendHex(Id, PerturbSeed);
  return {ArtifactType::ComponentMatrix, std::move(Id)};
}

/// Key of a graph + alias-table bundle. Fields that cannot affect the
/// artifact (flow options under a pure-qDrift mix, perturbation knobs when
/// WRp == 0) are normalized to zero so irrelevant flag changes never force
/// a rebuild. Weights are passed as raw doubles so the store layer stays
/// below the service layer (ChannelMix lives in service/TaskSpec.h). The
/// last argument is the retired CDF sampler switch (TaskSpec::UseCDF,
/// always false); it is ignored, and every id keeps its "-alias" suffix.
inline ArtifactKey aliasBundleKey(uint64_t Fingerprint, double WQd,
                                  double WGc, double WRp,
                                  const MCFPOptions &Flow, unsigned Rounds,
                                  uint64_t PerturbSeed, bool /*UseCDF*/) {
  bool NeedsFlow = WGc > 0.0 || WRp > 0.0;
  bool NeedsPerturb = WRp > 0.0;
  std::string Id = "graph";
  appendHex(Id, Fingerprint);
  appendHex(Id, serial::doubleBits(WQd));
  appendHex(Id, serial::doubleBits(WGc));
  appendHex(Id, serial::doubleBits(WRp));
  appendHex(Id, NeedsFlow ? static_cast<uint64_t>(Flow.ProbScale) : 0);
  appendHex(Id, NeedsFlow ? static_cast<uint64_t>(Flow.CostScale) : 0);
  appendHex(Id, NeedsPerturb ? Rounds : 0);
  appendHex(Id, NeedsPerturb ? PerturbSeed : 0);
  Id += "-alias";
  return {ArtifactType::AliasBundle, std::move(Id)};
}

/// Key of the exact fidelity target columns.
inline ArtifactKey fidelityColumnsKey(uint64_t Fingerprint, double T,
                                      size_t Columns, uint64_t ColumnSeed) {
  std::string Id = "eval";
  appendHex(Id, Fingerprint);
  appendHex(Id, serial::doubleBits(T));
  appendHex(Id, Columns);
  appendHex(Id, ColumnSeed);
  return {ArtifactType::FidelityColumns, std::move(Id)};
}

} // namespace store
} // namespace marqsim

#endif // MARQSIM_STORE_ARTIFACTKEY_H
