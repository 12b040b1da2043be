//===- linalg/Eigen.cpp - Eigenvalues of real matrices ----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "linalg/Eigen.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace marqsim;

namespace {

/// Work buffer addressing an N x N row-major double array.
class Mat {
public:
  Mat(std::vector<double> Data, size_t N) : Data(std::move(Data)), N(N) {}
  double &at(size_t R, size_t C) { return Data[R * N + C]; }
  double at(size_t R, size_t C) const { return Data[R * N + C]; }
  size_t size() const { return N; }

private:
  std::vector<double> Data;
  size_t N;
};

} // namespace

/// Reduces A to upper Hessenberg form by stabilized elementary similarity
/// transformations (EISPACK elmhes), then clears the multiplier storage
/// below the subdiagonal.
static void toHessenberg(Mat &A) {
  const size_t N = A.size();
  for (size_t M = 1; M + 1 < N; ++M) {
    // Find the pivot: largest |a(j, m-1)| for j >= m.
    double X = 0.0;
    size_t I = M;
    for (size_t J = M; J < N; ++J) {
      if (std::fabs(A.at(J, M - 1)) > std::fabs(X)) {
        X = A.at(J, M - 1);
        I = J;
      }
    }
    if (I != M) {
      // Similarity interchange of rows/columns i and m.
      for (size_t J = M - 1; J < N; ++J)
        std::swap(A.at(I, J), A.at(M, J));
      for (size_t J = 0; J < N; ++J)
        std::swap(A.at(J, I), A.at(J, M));
    }
    if (X == 0.0)
      continue;
    for (size_t R = M + 1; R < N; ++R) {
      double Y = A.at(R, M - 1);
      if (Y == 0.0)
        continue;
      Y /= X;
      A.at(R, M - 1) = Y;
      for (size_t J = M; J < N; ++J)
        A.at(R, J) -= Y * A.at(M, J);
      for (size_t J = 0; J < N; ++J)
        A.at(J, M) += Y * A.at(J, R);
    }
  }
  // The algorithm leaves multipliers below the subdiagonal; zero them so the
  // QR stage sees a clean Hessenberg matrix.
  for (size_t R = 2; R < N; ++R)
    for (size_t C = 0; C + 1 < R; ++C)
      A.at(R, C) = 0.0;
}

static double signedMag(double Mag, double SignSource) {
  return SignSource >= 0.0 ? std::fabs(Mag) : -std::fabs(Mag);
}

/// Francis double-shift QR on an upper Hessenberg matrix (EISPACK hqr).
/// Eigenvalues are appended to \p WR / \p WI.
static void hessenbergQR(Mat &A, std::vector<double> &WR,
                         std::vector<double> &WI) {
  const size_t N = A.size();
  WR.assign(N, 0.0);
  WI.assign(N, 0.0);
  if (N == 0)
    return;
  const double Eps = std::numeric_limits<double>::epsilon();

  // Overall norm used when a deflation test hits a zero row scale.
  double ANorm = 0.0;
  for (size_t I = 0; I < N; ++I)
    for (size_t J = (I == 0 ? 0 : I - 1); J < N; ++J)
      ANorm += std::fabs(A.at(I, J));
  if (ANorm == 0.0)
    return; // the zero matrix: all eigenvalues are zero

  long NN = static_cast<long>(N) - 1;
  double T = 0.0;
  double P = 0, Q = 0, R = 0, X = 0, Y = 0, Z = 0, W = 0, S = 0;

  while (NN >= 0) {
    int Its = 0;
    long L;
    do {
      // Look for a single small subdiagonal element.
      for (L = NN; L >= 1; --L) {
        S = std::fabs(A.at(L - 1, L - 1)) + std::fabs(A.at(L, L));
        if (S == 0.0)
          S = ANorm;
        if (std::fabs(A.at(L, L - 1)) <= Eps * S) {
          A.at(L, L - 1) = 0.0;
          break;
        }
      }
      if (L < 0)
        L = 0;
      X = A.at(NN, NN);
      if (L == NN) {
        // One real root found.
        WR[NN] = X + T;
        WI[NN] = 0.0;
        --NN;
      } else {
        Y = A.at(NN - 1, NN - 1);
        W = A.at(NN, NN - 1) * A.at(NN - 1, NN);
        if (L == NN - 1) {
          // A 2x2 block: two roots found.
          P = 0.5 * (Y - X);
          Q = P * P + W;
          Z = std::sqrt(std::fabs(Q));
          X += T;
          if (Q >= 0.0) {
            Z = P + signedMag(Z, P);
            WR[NN - 1] = WR[NN] = X + Z;
            if (Z != 0.0)
              WR[NN] = X - W / Z;
            WI[NN - 1] = WI[NN] = 0.0;
          } else {
            WR[NN - 1] = WR[NN] = X + P;
            WI[NN] = Z;
            WI[NN - 1] = -Z;
          }
          NN -= 2;
        } else {
          // No root yet: perform a double QR sweep.
          assert(Its < 60 && "hqr: too many QR iterations");
          if (Its == 10 || Its == 20 || Its == 30 || Its == 40 || Its == 50) {
            // Exceptional shift to break (near-)cycles.
            T += X;
            for (long I = 0; I <= NN; ++I)
              A.at(I, I) -= X;
            S = std::fabs(A.at(NN, NN - 1)) + std::fabs(A.at(NN - 1, NN - 2));
            Y = X = 0.75 * S;
            W = -0.4375 * S * S;
          }
          ++Its;
          // Find two consecutive small subdiagonal elements.
          long M;
          for (M = NN - 2; M >= L; --M) {
            Z = A.at(M, M);
            R = X - Z;
            S = Y - Z;
            P = (R * S - W) / A.at(M + 1, M) + A.at(M, M + 1);
            Q = A.at(M + 1, M + 1) - Z - R - S;
            R = A.at(M + 2, M + 1);
            S = std::fabs(P) + std::fabs(Q) + std::fabs(R);
            P /= S;
            Q /= S;
            R /= S;
            if (M == L)
              break;
            double U = std::fabs(A.at(M, M - 1)) *
                       (std::fabs(Q) + std::fabs(R));
            double V = std::fabs(P) * (std::fabs(A.at(M - 1, M - 1)) +
                                       std::fabs(Z) +
                                       std::fabs(A.at(M + 1, M + 1)));
            if (U <= Eps * V)
              break;
          }
          for (long I = M + 2; I <= NN; ++I) {
            A.at(I, I - 2) = 0.0;
            if (I != M + 2)
              A.at(I, I - 3) = 0.0;
          }
          // Double QR step on rows l..nn and columns m..nn.
          for (long K = M; K <= NN - 1; ++K) {
            if (K != M) {
              P = A.at(K, K - 1);
              Q = A.at(K + 1, K - 1);
              R = 0.0;
              if (K != NN - 1)
                R = A.at(K + 2, K - 1);
              X = std::fabs(P) + std::fabs(Q) + std::fabs(R);
              if (X != 0.0) {
                P /= X;
                Q /= X;
                R /= X;
              }
            }
            S = signedMag(std::sqrt(P * P + Q * Q + R * R), P);
            if (S == 0.0)
              continue;
            if (K == M) {
              if (L != M)
                A.at(K, K - 1) = -A.at(K, K - 1);
            } else {
              A.at(K, K - 1) = -S * X;
            }
            P += S;
            X = P / S;
            Y = Q / S;
            Z = R / S;
            Q /= P;
            R /= P;
            // Row modification.
            for (long J = K; J <= NN; ++J) {
              P = A.at(K, J) + Q * A.at(K + 1, J);
              if (K != NN - 1) {
                P += R * A.at(K + 2, J);
                A.at(K + 2, J) -= P * Z;
              }
              A.at(K + 1, J) -= P * Y;
              A.at(K, J) -= P * X;
            }
            long MMin = NN < K + 3 ? NN : K + 3;
            // Column modification.
            for (long I = L; I <= MMin; ++I) {
              P = X * A.at(I, K) + Y * A.at(I, K + 1);
              if (K != NN - 1) {
                P += Z * A.at(I, K + 2);
                A.at(I, K + 2) -= P * R;
              }
              A.at(I, K + 1) -= P * Q;
              A.at(I, K) -= P;
            }
          }
        }
      }
    } while (L < NN - 1);
  }
}

std::vector<std::complex<double>>
marqsim::realEigenvalues(const std::vector<double> &AData, size_t N) {
  assert(AData.size() == N * N && "matrix data size mismatch");
  Mat A(AData, N);
  toHessenberg(A);
  std::vector<double> WR, WI;
  hessenbergQR(A, WR, WI);

  std::vector<std::complex<double>> Eigs(N);
  for (size_t I = 0; I < N; ++I)
    Eigs[I] = {WR[I], WI[I]};
  std::sort(Eigs.begin(), Eigs.end(), [](const std::complex<double> &L,
                                         const std::complex<double> &R) {
    double ML = std::abs(L), MR = std::abs(R);
    if (ML != MR)
      return ML > MR;
    if (L.real() != R.real())
      return L.real() > R.real();
    return L.imag() > R.imag();
  });
  return Eigs;
}
