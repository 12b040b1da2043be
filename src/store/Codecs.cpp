//===- store/Codecs.cpp - Per-type artifact serialization ---------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "store/Codecs.h"

#include "support/Serial.h"

#include <charconv>
#include <sstream>

using namespace marqsim;
using namespace marqsim::serial;

namespace {

/// The whitespace operator>> skips in the "C" locale.
bool isSpace(char C) {
  return C == ' ' || C == '\n' || C == '\t' || C == '\r' || C == '\v' ||
         C == '\f';
}

/// Whitespace-separated tokens of a body, read in place: the tokens
/// operator>> on a std::istringstream of the body would read, without the
/// stream's copy of the body.
class Tokens {
public:
  explicit Tokens(std::string_view Text) : Text(Text) {}

  /// The next token; empty at the end of the body.
  std::string_view next() {
    skipSpace();
    const size_t Begin = Pos;
    while (Pos < Text.size() && !isSpace(Text[Pos]))
      ++Pos;
    return Text.substr(Begin, Pos - Begin);
  }

  /// Reads a decimal count (digits only) into \p Out.
  template <typename T> bool count(T &Out) {
    const std::string_view W = next();
    const char *End = W.data() + W.size();
    auto [Ptr, Ec] = std::from_chars(W.data(), End, Out);
    return !W.empty() && Ec == std::errc() && Ptr == End;
  }

  /// Reads one fixed-width word: exactly 16 hex digits.
  bool word(uint64_t &Out) {
    const std::string_view W = next();
    return W.size() == 16 && parseHex64(W, Out);
  }

  /// True when \p Count runs of \p Each fixed-width words can fit in
  /// what is left: a word takes 16 digits, and every one but the last a
  /// separator. Callers check this before they size anything from a
  /// header, so a short body never allocates what its header promises.
  bool fits(uint64_t Count, uint64_t Each = 1) const {
    return Count <= (Text.size() - Pos + 1) / 17 / Each;
  }

  /// True when only whitespace is left.
  bool atEnd() {
    skipSpace();
    return Pos == Text.size();
  }

private:
  void skipSpace() {
    while (Pos < Text.size() && isSpace(Text[Pos]))
      ++Pos;
  }

  std::string_view Text;
  size_t Pos = 0;
};

} // namespace

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
                        std::string_view Body) {
  Tokens In(Body);
  size_t N = 0;
  if (In.next() != Magic || !In.count(N) || N != ExpectedN || N == 0 ||
      !In.fits(N, N))
    return std::nullopt;
  TransitionMatrix P(N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      uint64_t Bits = 0;
      if (!In.word(Bits))
        return std::nullopt;
      P.at(I, J) = bitsToDouble(Bits);
    }
  if (!In.atEnd())
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
                          std::string_view Body) {
  Tokens In(Body);
  unsigned Qubits = 0;
  size_t NumColumns = 0, Dim = 0;
  if (In.next() != FidelityMagic || !In.count(Qubits) ||
      !In.count(NumColumns) || !In.count(Dim) || Qubits != ExpectedQubits ||
      NumColumns != ExpectedColumns || NumColumns == 0 ||
      Qubits >= 8 * sizeof(size_t) || Dim != (size_t(1) << Qubits) ||
      NumColumns > Dim)
    return std::nullopt;
  // Each column is its basis word and Dim (re, im) pairs; Dim fits before
  // 1 + 2 * Dim is formed, so that cannot wrap.
  if (!In.fits(Dim) || !In.fits(NumColumns, 1 + 2 * Dim))
    return std::nullopt;
  std::vector<uint64_t> Columns(NumColumns);
  std::vector<CVector> Targets(NumColumns);
  for (size_t C = 0; C < NumColumns; ++C) {
    if (!In.word(Columns[C]) || Columns[C] >= Dim)
      return std::nullopt;
    Targets[C].resize(Dim);
    for (size_t I = 0; I < Dim; ++I) {
      uint64_t Re = 0, Im = 0;
      if (!In.word(Re) || !In.word(Im))
        return std::nullopt;
      Targets[C][I] = Complex(bitsToDouble(Re), bitsToDouble(Im));
    }
  }
  if (!In.atEnd())
    return std::nullopt; // trailing garbage
  return FidelityEvaluator(Qubits, std::move(Columns), std::move(Targets));
}

size_t store::fidelityBytes(const FidelityEvaluator &E) {
  const size_t Dim = size_t(1) << E.numQubits();
  return E.numColumns() * (Dim * sizeof(Complex) + sizeof(uint64_t));
}
