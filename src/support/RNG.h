//===- support/RNG.h - Deterministic random number generation --*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable random number generation for the whole project.
///
/// All randomized compilation passes, Hamiltonian generators, and benchmark
/// harnesses draw from this engine so that every experiment is reproducible
/// from a single 64-bit seed. The core generator is xoshiro256**, seeded via
/// SplitMix64 as recommended by its authors.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SUPPORT_RNG_H
#define MARQSIM_SUPPORT_RNG_H

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace marqsim {

/// A small, fast, deterministic pseudo-random generator (xoshiro256**).
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions if ever needed, but the common draws used in
/// this project (uniform doubles, gaussians, bounded integers, discrete
/// distributions) are provided as members with stable, libstdc++-independent
/// behaviour.
class RNG {
public:
  using result_type = uint64_t;

  /// Creates a generator whose entire stream is determined by \p Seed.
  explicit RNG(uint64_t Seed = 0x9e3779b97f4a7c15ULL) { reseed(Seed); }

  /// Re-initializes the state from \p Seed via SplitMix64.
  void reseed(uint64_t Seed);

  /// Returns the next raw 64-bit value. Inline, like the two draws below:
  /// the Markov walk makes about three of them per step.
  uint64_t next() {
    const uint64_t Result = rotl(State[1] * 5, 7) * 9;
    const uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  uint64_t operator()() { return next(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }

  /// Returns a double uniformly distributed in [0, 1).
  double uniform() {
    // 53 high-quality bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns a double uniformly distributed in [Lo, Hi).
  double uniform(double Lo, double Hi) {
    assert(Lo <= Hi && "empty uniform range");
    return Lo + (Hi - Lo) * uniform();
  }

  /// Returns an integer uniformly distributed in [0, Bound). Costs two
  /// 64-bit divisions; code that draws many times from one Bound keeps a
  /// BoundedDraw, which returns the same values without dividing.
  uint64_t uniformInt(uint64_t Bound) {
    assert(Bound > 0 && "uniformInt bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const uint64_t Threshold = (~Bound + 1) % Bound; // == 2^64 mod Bound
    for (;;) {
      uint64_t X = next();
      if (X >= Threshold)
        return X % Bound;
    }
  }

  /// Returns a standard normal deviate (Box-Muller, cached pair).
  double gaussian();

  /// Returns a normal deviate with the given mean and standard deviation.
  double gaussian(double Mean, double Sigma) {
    return Mean + Sigma * gaussian();
  }

  /// Returns true with probability \p P.
  bool bernoulli(double P) { return uniform() < P; }

  /// Draws \p Count fair coins into the bits of \p Words: bit K % 64 of
  /// Words[K / 64] is what the K-th of \p Count bernoulli(0.5) calls would
  /// return, from the same next() values, so the generator ends where they
  /// leave it. Without a branch on the coin: uniform() < 0.5 holds exactly
  /// when next() >> 11 < 2^52, that is when bit 63 of next() is clear.
  /// Bits past \p Count in the last of the ceil(Count / 64) words are clear.
  void coinFlips(uint64_t *Words, size_t Count);

  /// Counter-based substream derivation: the generator for shot \p Shot of
  /// a batch seeded with \p Seed. The result depends only on (Seed, Shot),
  /// not on any generator state, so a batch compiled across any number of
  /// threads draws bit-identical streams per shot.
  static RNG forShot(uint64_t Seed, uint64_t Shot);

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t State[4];
  double CachedGaussian = 0.0;
  bool HasCachedGaussian = false;
};

/// RNG::uniformInt(Bound) for one Bound fixed in advance, without a
/// division: the constructor precomputes the rejection threshold
/// 2^64 mod Bound and a multiply-shift form of X / Bound that is exact for
/// every 64-bit X (Granlund and Montgomery, "Division by Invariant
/// Integers using Multiplication", PLDI 1994, Figure 4.1). A draw consumes
/// the same next() values as uniformInt(Bound) and returns the same value.
class BoundedDraw {
public:
  /// Prepares draws from [0, \p Bound); \p Bound must be positive.
  explicit BoundedDraw(uint64_t Bound = 1);

  uint64_t bound() const { return Bound; }

  /// Raw values below this are rejected (uniformInt's Threshold).
  uint64_t threshold() const { return Threshold; }

  /// X % bound(): q = (t + ((X - t) >> S1)) >> S2 with t the high word of
  /// X * Magic, then X - q * Bound. No intermediate overflows, since t <= X.
  uint64_t mod(uint64_t X) const {
    __extension__ using U128 = unsigned __int128;
    const uint64_t T = static_cast<uint64_t>((U128(X) * Magic) >> 64);
    const uint64_t Q = (T + ((X - T) >> Shift1)) >> Shift2;
    return X - Q * Bound;
  }

  uint64_t operator()(RNG &Rng) const {
    for (;;) {
      uint64_t X = Rng.next();
      if (X >= Threshold)
        return mod(X);
    }
  }

private:
  uint64_t Bound;
  uint64_t Threshold;
  uint64_t Magic;
  uint8_t Shift1, Shift2;
};

} // namespace marqsim

#endif // MARQSIM_SUPPORT_RNG_H
