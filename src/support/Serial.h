//===- support/Serial.h - Exact text serialization helpers ------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared codec of every persistent artifact in the project: the
/// on-disk MCFP component store and the shard manifests both serialize
/// doubles as raw IEEE-754 bit patterns in fixed-width hex (so round trips
/// are exact, not merely close) and guard their payloads with an FNV-1a
/// checksum (so truncation and bit flips are detected instead of silently
/// corrupting downstream results).
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SUPPORT_SERIAL_H
#define MARQSIM_SUPPORT_SERIAL_H

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace marqsim {
namespace serial {

/// The raw IEEE-754 bit pattern of \p D.
inline uint64_t doubleBits(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof(U));
  return U;
}

/// Inverse of doubleBits.
inline double bitsToDouble(uint64_t U) {
  double D;
  std::memcpy(&D, &U, sizeof(D));
  return D;
}

/// \p V as exactly 16 lowercase hex digits.
inline std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return std::string(Buf, 16);
}

/// Parses a full-width (1..16 digit) hex token into \p Out. Returns false
/// on empty tokens, non-hex characters, or trailing garbage.
inline bool parseHex64(const std::string &Word, uint64_t &Out) {
  if (Word.empty() || Word.size() > 16)
    return false;
  uint64_t V = 0;
  for (char C : Word) {
    int Digit;
    if (C >= '0' && C <= '9')
      Digit = C - '0';
    else if (C >= 'a' && C <= 'f')
      Digit = C - 'a' + 10;
    else if (C >= 'A' && C <= 'F')
      Digit = C - 'A' + 10;
    else
      return false;
    V = (V << 4) | static_cast<uint64_t>(Digit);
  }
  Out = V;
  return true;
}

inline constexpr uint64_t FNVOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t FNVPrime = 0x100000001b3ULL;

/// One FNV-1a step over a single byte.
inline uint64_t fnv1aByte(uint64_t H, unsigned char Byte) {
  return (H ^ Byte) * FNVPrime;
}

/// FNV-1a over a byte string, continuing from \p H (chainable).
inline uint64_t fnv1a(const std::string &Bytes, uint64_t H = FNVOffset) {
  for (char C : Bytes)
    H = fnv1aByte(H, static_cast<unsigned char>(C));
  return H;
}

/// FNV-1a over the 8 little-endian bytes of \p V, continuing from \p H.
inline uint64_t fnv1aWord(uint64_t V, uint64_t H = FNVOffset) {
  for (unsigned Byte = 0; Byte < 8; ++Byte)
    H = fnv1aByte(H, static_cast<unsigned char>((V >> (8 * Byte)) & 0xFF));
  return H;
}

/// fnv1aWord(V, H) for a term index. An index below 2^16 has six zero
/// upper bytes, and FNV-1a folds a zero byte in as a bare multiply, so its
/// 8-byte step is ((H ^ b0) P ^ b1) P^7: two multiplies instead of eight.
/// The step of the per-shot sequence hash, inline so the Markov walk's
/// fold can take it per visit.
inline uint64_t fnv1aIndex(uint64_t V, uint64_t H) {
  constexpr uint64_t P = FNVPrime;
  constexpr uint64_t P7 = P * P * P * P * P * P * P;
  if (V < 0x10000)
    return (((H ^ (V & 0xFF)) * P) ^ (V >> 8)) * P7;
  return fnv1aWord(V, H);
}

/// One coarse word-granularity FNV-1a-style step: folds the whole 64-bit
/// value in with a single xor-multiply. This is the combiner of the
/// order-sensitive hash chains built over values that are already hashes
/// (per-shot sequence hashes -> batch/range hashes); byte-granular mixing
/// (fnv1aWord) buys nothing there and costs 8x the multiplies.
inline uint64_t fnv1aMixWord(uint64_t H, uint64_t V) {
  return (H ^ V) * FNVPrime;
}

/// Appends the corruption-guard trailer ("checksum <hex16>\n") every
/// persistent artifact in the project carries.
inline std::string withChecksum(const std::string &Body) {
  return Body + "checksum " + hex16(fnv1a(Body)) + "\n";
}

/// Recovers the body of withChecksum output. Returns false — leaving
/// \p Body untouched — when the trailer is missing or malformed, or when
/// its value disagrees with the payload (truncation, bit flips, torn
/// writes). Callers treat false as "re-derive the artifact".
inline bool splitChecksummed(const std::string &Text, std::string &Body) {
  size_t Mark = Text.rfind("checksum ");
  if (Mark == std::string::npos || (Mark != 0 && Text[Mark - 1] != '\n'))
    return false;
  size_t Start = Mark + 9; // past "checksum "
  size_t End = Text.find_first_of(" \t\r\n", Start);
  uint64_t Stored = 0;
  if (!parseHex64(Text.substr(Start, End == std::string::npos
                                         ? std::string::npos
                                         : End - Start),
                  Stored))
    return false;
  if (fnv1a(Text.substr(0, Mark)) != Stored)
    return false;
  Body = Text.substr(0, Mark);
  return true;
}

} // namespace serial
} // namespace marqsim

#endif // MARQSIM_SUPPORT_SERIAL_H
