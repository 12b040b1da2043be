//===- pauli/HamiltonianIO.h - Hamiltonian text format ----------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain-text interchange format for decomposed Hamiltonians, so users
/// can bring their own (e.g. PySCF/Qiskit-Nature exports) instead of the
/// built-in generators:
///
///   # comment lines start with '#'
///   1.0   IIIZ
///   0.5   IIZZ
///   -0.4  XXYY
///
/// One term per line: real coefficient, whitespace, Pauli string (leftmost
/// character = highest qubit; all strings must have equal length).
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_PAULI_HAMILTONIANIO_H
#define MARQSIM_PAULI_HAMILTONIANIO_H

#include "pauli/Hamiltonian.h"

#include <iosfwd>
#include <optional>
#include <string>

namespace marqsim {

/// Parses the text format from \p IS. Returns std::nullopt and fills
/// \p Error (if non-null) on malformed input.
std::optional<Hamiltonian> readHamiltonian(std::istream &IS,
                                           std::string *Error = nullptr);

/// Parses a file by path.
std::optional<Hamiltonian> readHamiltonianFile(const std::string &Path,
                                               std::string *Error = nullptr);

} // namespace marqsim

#endif // MARQSIM_PAULI_HAMILTONIANIO_H
