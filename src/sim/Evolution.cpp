//===- sim/Evolution.cpp - Exact Hamiltonian evolution -----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Evolution.h"

#include "linalg/Expm.h"
#include "sim/StatePanel.h"
#include "support/AlignedAlloc.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <mutex>
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
  // libstdc++'s series calls lgamma, which writes the global signgam:
  // two services evolving targets on different threads would race on it.
  static std::mutex BesselMutex;
  std::lock_guard<std::mutex> Lock(BesselMutex);
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

/// The Chebyshev coefficients of one slice of an evolution by
/// \p Angle = lambda T, and the number of equal slices it runs as.
std::vector<Complex> sliceCoefficients(double Angle, unsigned &Slices) {
  Slices = static_cast<unsigned>(std::ceil(std::fabs(Angle) / MaxSliceAngle));
  return chebyshevCoefficients(Angle / Slices);
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
  unsigned Slices;
  const std::vector<Complex> C = sliceCoefficients(Angle, Slices);
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

void marqsim::evolveExact(const PauliOperator &H, double T,
                          StatePanel &Panel) {
  assert(Panel.isFullLayout() && Panel.numQubits() == H.numQubits() &&
         "the panel propagator runs on the full layout");
  assert(std::isfinite(T) && "evolution time must be finite");
  const double Lambda = H.lambda();
  const double Angle = Lambda * T;
  if (Angle == 0.0)
    return;
  unsigned Slices;
  const std::vector<Complex> C = sliceCoefficients(Angle, Slices);
  const double Scale = 1.0 / Lambda;
  const size_t Stride = Panel.laneStride();
  const size_t N = Panel.rows() * Stride;
  // The vector form's recurrence on split planes: State lives in the
  // panel's own planes, and every complex operation below is spelled out
  // as std::complex evaluates it — a scale by a real scales both parts,
  // and a product by a coefficient is the naive four-multiply expansion.
  double *SRe = Panel.realPlane(), *SIm = Panel.imagPlane();
  using Plane = std::vector<double, AlignedAllocator<double, 64>>;
  Plane PRe(N), PIm(N), CRe(N), CIm(N), HRe(N), HIm(N);
  const double TwoScale = 2.0 * Scale;
  for (unsigned S = 0; S < Slices; ++S) {
    // Prev = T_0 v = v, Cur = T_1 v = (H / lambda) v.
    std::copy(SRe, SRe + N, PRe.begin());
    std::copy(SIm, SIm + N, PIm.begin());
    H.applyPanel(PRe.data(), PIm.data(), CRe.data(), CIm.data(), Stride);
    const double C0Re = C[0].real(), C0Im = C[0].imag();
    const double C1Re = C[1].real(), C1Im = C[1].imag();
    for (size_t I = 0; I < N; ++I) {
      CRe[I] *= Scale;
      CIm[I] *= Scale;
      SRe[I] = (C0Re * PRe[I] - C0Im * PIm[I]) +
               (C1Re * CRe[I] - C1Im * CIm[I]);
      SIm[I] = (C0Re * PIm[I] + C0Im * PRe[I]) +
               (C1Re * CIm[I] + C1Im * CRe[I]);
    }
    // T_{k+1} = 2 (H / lambda) T_k - T_{k-1}, written over T_{k-1}.
    for (size_t K = 2; K < C.size(); ++K) {
      H.applyPanel(CRe.data(), CIm.data(), HRe.data(), HIm.data(), Stride);
      const double CKRe = C[K].real(), CKIm = C[K].imag();
      for (size_t I = 0; I < N; ++I) {
        PRe[I] = TwoScale * HRe[I] - PRe[I];
        PIm[I] = TwoScale * HIm[I] - PIm[I];
        SRe[I] += CKRe * PRe[I] - CKIm * PIm[I];
        SIm[I] += CKRe * PIm[I] + CKIm * PRe[I];
      }
      PRe.swap(CRe);
      PIm.swap(CIm);
    }
  }
}

Matrix marqsim::exactUnitary(const Hamiltonian &H, double T) {
  assert(H.numQubits() <= 12 && "dense exact unitary too large");
  Matrix HM = H.toMatrix();
  return expm(HM * Complex(0.0, T));
}
