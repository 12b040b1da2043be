//===- sim/NoiseModel.h - Per-gate noise channels ---------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-gate noise channels for the noisy-simulation workload tier:
/// amplitude damping, phase flip, and depolarizing, each with a base
/// per-gate probability and a multi-qubit factor (multi-qubit rotations
/// are noisier on real devices), following the shape of ddsim's
/// DeterministicNoiseSimulator.
///
/// Each channel is exposed two ways:
///
///  - **Stochastic tier** (any n): the channel's Pauli twirl — a discrete
///    {I, X, Y, Z} error distribution per touched qubit — is sampled from
///    a counter-based RNG substream decoupled from the sampling stream,
///    and the drawn errors are injected into the compiled schedule as
///    extra pi/2 Pauli rotations (e^{i pi/2 P} = i P up to global phase,
///    which the per-column |overlap|^2 metric cancels). Because the draws
///    depend only on (seed, global shot index), a noisy batch is
///    bit-identical for any --jobs/--eval-jobs/--shards split.
///
///  - **Deterministic oracle** (small n): the same twirled channel applied
///    as an exact Kraus map to a density matrix (DensityMatrix::applyChannel)
///    after every rotation. Its column fidelity is the exact expectation
///    of the stochastic tier's, so the oracle validates the sampled tier
///    within statistical tolerance. For depolarizing and phase flip the
///    twirl *is* the exact channel; amplitude damping additionally exposes
///    its exact (non-Pauli) Kraus pair for channel-level tests.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_NOISEMODEL_H
#define MARQSIM_SIM_NOISEMODEL_H

#include "circuit/PauliEvolution.h"
#include "linalg/Matrix.h"
#include "support/RNG.h"

#include <optional>
#include <string>
#include <vector>

namespace marqsim {

class FidelityEvaluator;

/// Which single-qubit channel acts after every scheduled rotation.
enum class NoiseChannelKind {
  None,             ///< noiseless (the default; spec stays inert)
  Depolarizing,     ///< rho -> (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z)
  PhaseFlip,        ///< rho -> (1-p) rho + p Z rho Z
  AmplitudeDamping, ///< K0 = diag(1, sqrt(1-g)), K1 = sqrt(g) |0><1|
};

/// How the channel is evaluated.
enum class NoiseMode {
  Stochastic, ///< per-shot Pauli-twirl injection (any n)
  Density,    ///< deterministic density-matrix oracle
};

/// CLI/stats spelling of a channel ("none", "depolarizing", ...).
const char *noiseChannelName(NoiseChannelKind K);

/// Inverse of noiseChannelName. std::nullopt for unknown spellings.
std::optional<NoiseChannelKind> parseNoiseChannel(const std::string &Name);

/// CLI/stats spelling of a mode ("stochastic" / "density").
const char *noiseModeName(NoiseMode M);

/// Inverse of noiseModeName. std::nullopt for unknown spellings.
std::optional<NoiseMode> parseNoiseMode(const std::string &Name);

/// The declarative noise configuration of a task. The default state is
/// inert: enabled() is false and every consumer (contentKey, manifests,
/// JSON frames) treats it as "field absent", so noiseless specs keep the
/// keys they had before the tier existed.
struct NoiseSpec {
  NoiseChannelKind Kind = NoiseChannelKind::None;

  /// Per-gate error probability (damping parameter gamma for
  /// AmplitudeDamping) of a single-qubit rotation. In [0, 1].
  double Prob = 0.0;

  /// Multiplier on Prob for rotations touching >= 2 qubits (capped at
  /// probability 1). Must be positive.
  double TwoQubitFactor = 1.0;

  NoiseMode Mode = NoiseMode::Stochastic;

  /// True when the channel actually does anything.
  bool enabled() const { return Kind != NoiseChannelKind::None && Prob > 0.0; }
};

/// The probabilities of the Pauli-twirled channel: X, Y, and Z error
/// weights (identity takes the remainder 1 - total()).
struct PauliTwirlWeights {
  double PX = 0.0;
  double PY = 0.0;
  double PZ = 0.0;

  double total() const { return PX + PY + PZ; }
};

/// A configured noise channel: the pure functions that both tiers share.
class NoiseModel {
public:
  explicit NoiseModel(const NoiseSpec &Spec) : Spec(Spec) {}

  const NoiseSpec &spec() const { return Spec; }

  /// The error probability a rotation of Pauli weight \p Weight sees:
  /// Prob scaled by TwoQubitFactor for multi-qubit rotations, capped at 1.
  double effectiveProb(unsigned Weight) const;

  /// Pauli-twirl weights of the channel at probability \p P.
  /// Depolarizing: p/3 each. Phase flip: PZ = p. Amplitude damping
  /// (gamma = p): PX = PY = gamma/4, PZ = (2 - gamma - 2 sqrt(1-gamma))/4.
  PauliTwirlWeights twirlWeights(double P) const;

  /// Exact 2x2 Kraus operators of the channel at probability \p P
  /// (sum K_i^dag K_i = I). For depolarizing and phase flip this equals
  /// the twirled set below.
  std::vector<Matrix> krausOperators(double P) const;

  /// Kraus operators of the Pauli twirl at probability \p P:
  /// {sqrt(1-pt) I, sqrt(pX) X, sqrt(pY) Y, sqrt(pZ) Z}, zero-weight
  /// operators omitted. This is the channel both tiers evaluate.
  std::vector<Matrix> twirledKraus(double P) const;

  /// The stochastic tier's injection: after each rotation of \p Schedule,
  /// draws one twirl outcome per support qubit (ascending qubit order)
  /// from \p Rng and appends the drawn errors as pi/2 Pauli rotations.
  /// Deterministic in the RNG stream; the noiseless schedule is a prefix
  /// pattern, never reordered.
  std::vector<ScheduledRotation>
  injectErrors(const std::vector<ScheduledRotation> &Schedule,
               RNG &Rng) const;

  /// Density oracle: mean over the evaluator's columns x of
  /// <psi_x| Lambda(|x><x|) |psi_x>, where Lambda replays \p Schedule with
  /// the twirled channel applied to every support qubit after each
  /// rotation. Exactly the expectation of the stochastic tier's per-shot
  /// state fidelity over its noise draws. \p NumQubits <= 6.
  double densityFidelity(const std::vector<ScheduledRotation> &Schedule,
                         unsigned NumQubits,
                         const FidelityEvaluator &Eval) const;

  /// The salt-decoupled seed of the noise substream: noise draws for shot
  /// k come from RNG::forShot(noiseStreamSeed(Seed), k), so they never
  /// perturb the sampling stream (a noisy run walks the same Markov paths
  /// as its noiseless twin).
  static uint64_t noiseStreamSeed(uint64_t Seed);

private:
  NoiseSpec Spec;
};

} // namespace marqsim

#endif // MARQSIM_SIM_NOISEMODEL_H
