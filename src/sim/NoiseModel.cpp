//===- sim/NoiseModel.cpp - Per-gate noise channels ---------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/NoiseModel.h"

#include "sim/DensityMatrix.h"
#include "sim/Fidelity.h"

#include <algorithm>
#include <cmath>

using namespace marqsim;

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

const char *marqsim::noiseChannelName(NoiseChannelKind K) {
  switch (K) {
  case NoiseChannelKind::None:
    return "none";
  case NoiseChannelKind::Depolarizing:
    return "depolarizing";
  case NoiseChannelKind::PhaseFlip:
    return "phase-flip";
  case NoiseChannelKind::AmplitudeDamping:
    return "amplitude-damping";
  }
  return "none";
}

std::optional<NoiseChannelKind>
marqsim::parseNoiseChannel(const std::string &Name) {
  if (Name == "none")
    return NoiseChannelKind::None;
  if (Name == "depolarizing")
    return NoiseChannelKind::Depolarizing;
  if (Name == "phase-flip")
    return NoiseChannelKind::PhaseFlip;
  if (Name == "amplitude-damping")
    return NoiseChannelKind::AmplitudeDamping;
  return std::nullopt;
}

const char *marqsim::noiseModeName(NoiseMode M) {
  return M == NoiseMode::Density ? "density" : "stochastic";
}

std::optional<NoiseMode> marqsim::parseNoiseMode(const std::string &Name) {
  if (Name == "stochastic")
    return NoiseMode::Stochastic;
  if (Name == "density")
    return NoiseMode::Density;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Channel algebra
//===----------------------------------------------------------------------===//

double NoiseModel::effectiveProb(unsigned Weight) const {
  if (Weight == 0 || !Spec.enabled())
    return 0.0;
  double P = Spec.Prob;
  if (Weight >= 2)
    P *= Spec.TwoQubitFactor;
  return std::min(P, 1.0);
}

PauliTwirlWeights NoiseModel::twirlWeights(double P) const {
  PauliTwirlWeights W;
  switch (Spec.Kind) {
  case NoiseChannelKind::None:
    break;
  case NoiseChannelKind::Depolarizing:
    W.PX = W.PY = W.PZ = P / 3.0;
    break;
  case NoiseChannelKind::PhaseFlip:
    W.PZ = P;
    break;
  case NoiseChannelKind::AmplitudeDamping:
    // Twirling K0 = diag(1, sqrt(1-g)), K1 = sqrt(g)|0><1| over the Pauli
    // group: pX = pY = g/4, pZ = (2 - g - 2 sqrt(1-g))/4.
    W.PX = W.PY = P / 4.0;
    W.PZ = (2.0 - P - 2.0 * std::sqrt(1.0 - P)) / 4.0;
    break;
  }
  return W;
}

namespace {

Matrix pauli2x2(PauliOpKind K) {
  Matrix M(2, 2);
  switch (K) {
  case PauliOpKind::I:
    M.at(0, 0) = M.at(1, 1) = 1.0;
    break;
  case PauliOpKind::X:
    M.at(0, 1) = M.at(1, 0) = 1.0;
    break;
  case PauliOpKind::Y:
    M.at(0, 1) = Complex(0.0, -1.0);
    M.at(1, 0) = Complex(0.0, 1.0);
    break;
  case PauliOpKind::Z:
    M.at(0, 0) = 1.0;
    M.at(1, 1) = -1.0;
    break;
  }
  return M;
}

} // namespace

std::vector<Matrix> NoiseModel::krausOperators(double P) const {
  if (Spec.Kind == NoiseChannelKind::AmplitudeDamping) {
    Matrix K0(2, 2), K1(2, 2);
    K0.at(0, 0) = 1.0;
    K0.at(1, 1) = std::sqrt(1.0 - P);
    K1.at(0, 1) = std::sqrt(P);
    return {std::move(K0), std::move(K1)};
  }
  return twirledKraus(P);
}

std::vector<Matrix> NoiseModel::twirledKraus(double P) const {
  PauliTwirlWeights W = twirlWeights(P);
  std::vector<Matrix> Kraus;
  Kraus.push_back(pauli2x2(PauliOpKind::I) *
                  Complex(std::sqrt(1.0 - W.total()), 0.0));
  if (W.PX > 0.0)
    Kraus.push_back(pauli2x2(PauliOpKind::X) * Complex(std::sqrt(W.PX), 0.0));
  if (W.PY > 0.0)
    Kraus.push_back(pauli2x2(PauliOpKind::Y) * Complex(std::sqrt(W.PY), 0.0));
  if (W.PZ > 0.0)
    Kraus.push_back(pauli2x2(PauliOpKind::Z) * Complex(std::sqrt(W.PZ), 0.0));
  return Kraus;
}

//===----------------------------------------------------------------------===//
// Stochastic tier
//===----------------------------------------------------------------------===//

std::vector<ScheduledRotation>
NoiseModel::injectErrors(const std::vector<ScheduledRotation> &Schedule,
                         RNG &Rng) const {
  // e^{i pi/2 P} = i P: the injected rotation applies the drawn Pauli
  // exactly, up to a global phase the |overlap|^2 metric cancels.
  constexpr double HalfPi = 1.5707963267948966;
  std::vector<ScheduledRotation> Noisy;
  Noisy.reserve(Schedule.size() * 2);
  for (const ScheduledRotation &Step : Schedule) {
    Noisy.push_back(Step);
    PauliTwirlWeights W = twirlWeights(effectiveProb(Step.String.weight()));
    if (W.total() <= 0.0)
      continue;
    // One draw per support qubit, in ascending qubit order — a fixed
    // iteration order is part of the determinism contract.
    uint64_t Support = Step.String.supportMask();
    for (unsigned Q = 0; Support != 0; ++Q, Support >>= 1) {
      if (!(Support & 1))
        continue;
      double U = Rng.uniform();
      PauliOpKind Err;
      if (U < W.PX)
        Err = PauliOpKind::X;
      else if (U < W.PX + W.PY)
        Err = PauliOpKind::Y;
      else if (U < W.total())
        Err = PauliOpKind::Z;
      else
        continue;
      PauliString P;
      P.setOp(Q, Err);
      Noisy.emplace_back(P, HalfPi);
    }
  }
  return Noisy;
}

uint64_t NoiseModel::noiseStreamSeed(uint64_t Seed) {
  // Salt-decoupled like PerturbSeed: the noise stream never consumes from
  // (or perturbs) the sampling stream, so a noisy batch walks the exact
  // Markov paths of its noiseless twin.
  return Seed ^ 0x6e6f6973655eedULL;
}

//===----------------------------------------------------------------------===//
// Density oracle
//===----------------------------------------------------------------------===//

double
NoiseModel::densityFidelity(const std::vector<ScheduledRotation> &Schedule,
                            unsigned NumQubits,
                            const FidelityEvaluator &Eval) const {
  double Acc = 0.0;
  const size_t NumCols = Eval.numColumns();
  for (size_t C = 0; C < NumCols; ++C) {
    DensityMatrix Rho(NumQubits, Eval.columns()[C]);
    for (const ScheduledRotation &Step : Schedule) {
      Rho.applyPauliExp(Step.String, Step.Tau);
      std::vector<Matrix> Kraus =
          twirledKraus(effectiveProb(Step.String.weight()));
      uint64_t Support = Step.String.supportMask();
      for (unsigned Q = 0; Support != 0; ++Q, Support >>= 1)
        if (Support & 1)
          Rho.applyChannel(Kraus, Q);
    }
    Acc += Rho.overlap(StateVector(NumQubits, Eval.targets()[C]));
  }
  return Acc / static_cast<double>(NumCols);
}
