//===- sim/Evolution.cpp - Exact Hamiltonian evolution -----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Evolution.h"

#include "linalg/Expm.h"

#include <cassert>
#include <cmath>
#include <vector>

using namespace marqsim;

namespace {

/// Largest Bessel argument lambda*|t| of one slice. Up to 1000,
/// libstdc++'s std::cyl_bessel_j uses its series and continued-fraction
/// methods, accurate at every order the expansion needs; above that it
/// switches to a large-argument asymptotic form that is not valid for
/// orders near the argument. Longer evolutions run as equal slices.
constexpr double MaxSliceAngle = 500.0;

/// Past k = |a|, J_k(a) decays faster than geometrically, so once a
/// coefficient falls below this the rest of the series is below the
/// rounding of the result.
constexpr double BesselCutoff = 1e-16;

/// Chebyshev coefficients of e^{i a x} on [-1, 1] (Jacobi-Anger):
/// c_0 = J_0(a), c_k = 2 i^k J_k(a). std::cyl_bessel_j takes only
/// arguments >= 0, so a < 0 uses J_k(-a) = (-1)^k J_k(a).
std::vector<Complex> chebyshevCoefficients(double A) {
  static const Complex IPow[4] = {
      {1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
  const double Abs = std::fabs(A);
  std::vector<Complex> C;
  for (unsigned K = 0;; ++K) {
    double J = std::cyl_bessel_j(static_cast<double>(K), Abs);
    if (A < 0.0 && (K & 1))
      J = -J;
    C.push_back(K == 0 ? Complex(J, 0.0) : 2.0 * J * IPow[K % 4]);
    if (K > Abs && std::fabs(J) < BesselCutoff)
      return C;
  }
}

} // namespace

CVector marqsim::applyHamiltonian(const Hamiltonian &H, const CVector &X) {
  return PauliOperator(H).apply(X);
}

CVector marqsim::evolveExact(const Hamiltonian &H, double T,
                             const CVector &In) {
  return evolveExact(PauliOperator(H), T, In);
}

CVector marqsim::evolveExact(const PauliOperator &H, double T,
                             const CVector &In) {
  assert(In.size() == size_t(1) << H.numQubits() && "state size mismatch");
  assert(std::isfinite(T) && "evolution time must be finite");
  // e^{iTH} = sum_k c_k T_k(H / lambda) with a = lambda T. lambda bounds
  // the spectral norm, so H / lambda has its spectrum in [-1, 1], where
  // |T_k| <= 1: the truncation error is the sum of the dropped |c_k|.
  const double Lambda = H.lambda();
  const double Angle = Lambda * T;
  if (Angle == 0.0)
    return In;
  const unsigned Slices =
      static_cast<unsigned>(std::ceil(std::fabs(Angle) / MaxSliceAngle));
  const std::vector<Complex> C = chebyshevCoefficients(Angle / Slices);
  const double Scale = 1.0 / Lambda;
  const size_t Dim = In.size();
  CVector State = In, Prev(Dim), Cur(Dim), HCur(Dim);
  for (unsigned S = 0; S < Slices; ++S) {
    // Prev = T_0 v = v, Cur = T_1 v = (H / lambda) v.
    Prev.swap(State);
    H.apply(Prev.data(), Cur.data());
    for (size_t I = 0; I < Dim; ++I) {
      Cur[I] *= Scale;
      State[I] = C[0] * Prev[I] + C[1] * Cur[I];
    }
    // T_{k+1} = 2 (H / lambda) T_k - T_{k-1}, written over T_{k-1}.
    for (size_t K = 2; K < C.size(); ++K) {
      H.apply(Cur.data(), HCur.data());
      for (size_t I = 0; I < Dim; ++I) {
        Prev[I] = 2.0 * Scale * HCur[I] - Prev[I];
        State[I] += C[K] * Prev[I];
      }
      Prev.swap(Cur);
    }
  }
  return State;
}

Matrix marqsim::exactUnitary(const Hamiltonian &H, double T) {
  assert(H.numQubits() <= 12 && "dense exact unitary too large");
  Matrix HM = H.toMatrix();
  return expm(HM * Complex(0.0, T));
}
