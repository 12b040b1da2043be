//===- support/RNG.cpp - Deterministic random number generation ----------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/RNG.h"

#include <algorithm>
#include <cmath>

using namespace marqsim;

static uint64_t splitMix64(uint64_t &X) {
  X += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

void RNG::reseed(uint64_t Seed) {
  uint64_t S = Seed;
  for (uint64_t &Word : State)
    Word = splitMix64(S);
  HasCachedGaussian = false;
}

void RNG::coinFlips(uint64_t *Words, size_t Count) {
  for (size_t K0 = 0; K0 < Count; K0 += 64) {
    const size_t Bits = std::min<size_t>(Count - K0, 64);
    uint64_t Word = 0;
    for (size_t B = 0; B < Bits; ++B)
      Word |= (~next() >> 63) << B;
    Words[K0 / 64] = Word;
  }
}

double RNG::gaussian() {
  if (HasCachedGaussian) {
    HasCachedGaussian = false;
    return CachedGaussian;
  }
  // Box-Muller; uniform() can return 0, so nudge into (0, 1].
  double U1 = 1.0 - uniform();
  double U2 = uniform();
  double R = std::sqrt(-2.0 * std::log(U1));
  double Theta = 2.0 * M_PI * U2;
  CachedGaussian = R * std::sin(Theta);
  HasCachedGaussian = true;
  return R * std::cos(Theta);
}

BoundedDraw::BoundedDraw(uint64_t B) : Bound(B) {
  assert(Bound > 0 && "BoundedDraw bound must be positive");
  __extension__ using U128 = unsigned __int128;
  Threshold = (~Bound + 1) % Bound;
  // L = ceil(log2 Bound); Magic = floor(2^64 (2^L - Bound) / Bound) + 1,
  // which is below 2^64 because 2^L < 2 Bound. Bound 1 (L = 0) and powers
  // of two get Magic 1, so t = 0 and the shifts alone divide.
  const unsigned L = Bound == 1 ? 0 : 64 - __builtin_clzll(Bound - 1);
  Magic = static_cast<uint64_t>((((U128(1) << L) - Bound) << 64) / Bound + 1);
  Shift1 = L == 0 ? 0 : 1;
  Shift2 = L == 0 ? 0 : static_cast<uint8_t>(L - 1);
}

RNG RNG::forShot(uint64_t Seed, uint64_t Shot) {
  // Two SplitMix64 passes over a mix of seed and counter; SplitMix64 is a
  // bijection, so distinct (Seed, Shot) pairs keep distinct states before
  // the final xor decorrelates the two inputs.
  uint64_t A = Seed;
  uint64_t MixedSeed = splitMix64(A);
  uint64_t B = Shot ^ 0x94d049bb133111ebULL;
  uint64_t MixedShot = splitMix64(B);
  return RNG(MixedSeed ^ rotl(MixedShot, 23));
}
