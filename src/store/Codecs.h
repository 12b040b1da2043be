//===- store/Codecs.h - Per-type artifact serialization ---------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The disk codecs of the ArtifactStore, one per artifact type. Every body
/// serializes doubles as raw IEEE-754 bit patterns in fixed-width hex (via
/// support/Serial.h), so round trips are bit-exact, never merely close —
/// the precondition for a reloaded artifact reproducing a batch bit for
/// bit. Decoders validate dimensions against what the caller knows from
/// the Hamiltonian (a mismatch means a stale file under a colliding key)
/// and reject malformed hex and trailing garbage; the whole-file checksum
/// is the store's job, not the codecs'.
///
/// Formats (one line each, then payload):
///   marqsim-matrix-v2 N        N x N transition matrix (component solves;
///                              unchanged from the PR 2 store, so existing
///                              cache directories stay valid)
///   marqsim-alias-v1 N         the combined (channel-mixed) transition
///                              matrix an alias bundle is rebuilt from
///   marqsim-fid-v2 Q C D       Q qubits, C columns of dimension D = 2^Q;
///                              per column: basis index + D complex
///                              amplitudes (v1 bodies hold targets of the
///                              older Taylor propagator, whose bits differ,
///                              so they are rejected and recomputed)
///
/// The alias bundle deliberately persists the combined matrix rather than
/// the alias tables themselves: table construction is a cheap
/// deterministic function of the matrix (identical bits in, identical
/// tables out), while the matrix is the part whose provenance chain (MCFP
/// solves + convex combination) is worth skipping.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_STORE_CODECS_H
#define MARQSIM_STORE_CODECS_H

#include "markov/TransitionMatrix.h"
#include "sim/Fidelity.h"

#include <optional>
#include <string>

namespace marqsim {
namespace store {

/// Magic of the component-matrix format (kept from the PR 2 store).
inline constexpr const char *MatrixMagic = "marqsim-matrix-v2";

/// Magic of the alias-bundle (combined matrix) format.
inline constexpr const char *AliasMagic = "marqsim-alias-v1";

/// Magic of the fidelity-columns format.
inline constexpr const char *FidelityMagic = "marqsim-fid-v2";

/// Serializes \p P under \p Magic.
std::string encodeMatrixBody(const char *Magic, const TransitionMatrix &P);

/// Parses a matrix body. Returns std::nullopt on a magic/dimension
/// mismatch (\p ExpectedN is known from the Hamiltonian, so a disagreement
/// means a stale or corrupt file), malformed hex, or trailing garbage.
std::optional<TransitionMatrix>
decodeMatrixBody(const char *Magic, size_t ExpectedN,
                 const std::string &Body);

/// In-memory footprint of \p P, for LRU accounting.
size_t matrixBytes(const TransitionMatrix &P);

/// Serializes the evaluator's chosen columns and exact targets.
std::string encodeFidelityBody(const FidelityEvaluator &E);

/// Parses a fidelity body into a rehydrated evaluator. \p ExpectedQubits
/// and \p ExpectedColumns come from the Hamiltonian and the task spec.
std::optional<FidelityEvaluator>
decodeFidelityBody(unsigned ExpectedQubits, size_t ExpectedColumns,
                   const std::string &Body);

/// In-memory footprint of \p E's targets, for LRU accounting.
size_t fidelityBytes(const FidelityEvaluator &E);

} // namespace store
} // namespace marqsim

#endif // MARQSIM_STORE_CODECS_H
