//===- store/Codecs.cpp - Per-type artifact serialization ---------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "store/Codecs.h"

#include "support/Serial.h"

#include <sstream>

using namespace marqsim;
using namespace marqsim::serial;

//===----------------------------------------------------------------------===//
// Transition matrices (components and combined alias-bundle matrices)
//===----------------------------------------------------------------------===//

std::string store::encodeMatrixBody(const char *Magic,
                                    const TransitionMatrix &P) {
  std::ostringstream Body;
  Body << Magic << " " << P.size() << "\n";
  for (size_t I = 0; I < P.size(); ++I) {
    for (size_t J = 0; J < P.size(); ++J)
      Body << hex16(doubleBits(P.at(I, J)))
           << (J + 1 == P.size() ? "" : " ");
    Body << "\n";
  }
  return Body.str();
}

std::optional<TransitionMatrix>
store::decodeMatrixBody(const char *Magic, size_t ExpectedN,
                        const std::string &Body) {
  std::istringstream Rows(Body);
  std::string Word;
  size_t N = 0;
  if (!(Rows >> Word >> N) || Word != Magic || N != ExpectedN || N == 0)
    return std::nullopt;
  TransitionMatrix P(N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      uint64_t Bits = 0;
      if (!(Rows >> Word) || Word.size() != 16 || !parseHex64(Word, Bits))
        return std::nullopt;
      P.at(I, J) = bitsToDouble(Bits);
    }
  if (Rows >> Word)
    return std::nullopt; // trailing garbage
  return P;
}

size_t store::matrixBytes(const TransitionMatrix &P) {
  return P.size() * P.size() * sizeof(double);
}

//===----------------------------------------------------------------------===//
// Fidelity target columns
//===----------------------------------------------------------------------===//

std::string store::encodeFidelityBody(const FidelityEvaluator &E) {
  const size_t Dim = size_t(1) << E.numQubits();
  std::ostringstream Body;
  Body << FidelityMagic << " " << E.numQubits() << " " << E.numColumns()
       << " " << Dim << "\n";
  for (size_t C = 0; C < E.numColumns(); ++C) {
    Body << hex16(E.columns()[C]) << "\n";
    const CVector &Target = E.targets()[C];
    for (size_t I = 0; I < Target.size(); ++I)
      Body << hex16(doubleBits(Target[I].real())) << " "
           << hex16(doubleBits(Target[I].imag()))
           << (I + 1 == Target.size() ? "" : " ");
    Body << "\n";
  }
  return Body.str();
}

std::optional<FidelityEvaluator>
store::decodeFidelityBody(unsigned ExpectedQubits, size_t ExpectedColumns,
                          const std::string &Body) {
  std::istringstream In(Body);
  std::string Word;
  unsigned Qubits = 0;
  size_t NumColumns = 0, Dim = 0;
  if (!(In >> Word >> Qubits >> NumColumns >> Dim) ||
      Word != FidelityMagic || Qubits != ExpectedQubits ||
      NumColumns != ExpectedColumns || NumColumns == 0 ||
      Qubits >= 8 * sizeof(size_t) || Dim != (size_t(1) << Qubits) ||
      NumColumns > Dim)
    return std::nullopt;
  std::vector<uint64_t> Columns(NumColumns);
  std::vector<CVector> Targets(NumColumns);
  auto ReadHex = [&](uint64_t &Out) {
    return static_cast<bool>(In >> Word) && Word.size() == 16 &&
           parseHex64(Word, Out);
  };
  for (size_t C = 0; C < NumColumns; ++C) {
    if (!ReadHex(Columns[C]) || Columns[C] >= Dim)
      return std::nullopt;
    Targets[C].resize(Dim);
    for (size_t I = 0; I < Dim; ++I) {
      uint64_t Re = 0, Im = 0;
      if (!ReadHex(Re) || !ReadHex(Im))
        return std::nullopt;
      Targets[C][I] = Complex(bitsToDouble(Re), bitsToDouble(Im));
    }
  }
  if (In >> Word)
    return std::nullopt; // trailing garbage
  return FidelityEvaluator(Qubits, std::move(Columns), std::move(Targets));
}

size_t store::fidelityBytes(const FidelityEvaluator &E) {
  const size_t Dim = size_t(1) << E.numQubits();
  return E.numColumns() * (Dim * sizeof(Complex) + sizeof(uint64_t));
}
