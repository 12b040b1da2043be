//===- sim/DensityMatrix.cpp - Mixed states and channels ----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/DensityMatrix.h"

#include "linalg/Eigen.h"

#include <cmath>
#include <stdexcept>

using namespace marqsim;

DensityMatrix::DensityMatrix(unsigned NumQubits, uint64_t Basis)
    : NQubits(NumQubits),
      Rho(size_t(1) << NumQubits, size_t(1) << NumQubits) {
  assert(NumQubits <= 10 && "density matrix too large");
  assert(Basis < (uint64_t(1) << NumQubits) && "basis state out of range");
  Rho.at(Basis, Basis) = 1.0;
}

DensityMatrix::DensityMatrix(const StateVector &Psi)
    : NQubits(Psi.numQubits()), Rho(Psi.dim(), Psi.dim()) {
  assert(NQubits <= 10 && "density matrix too large");
  const CVector &A = Psi.amplitudes();
  for (size_t I = 0; I < A.size(); ++I)
    for (size_t J = 0; J < A.size(); ++J)
      Rho.at(I, J) = A[I] * std::conj(A[J]);
}

void DensityMatrix::applyUnitary(const Matrix &U) {
  assert(U.rows() == Rho.rows() && "unitary dimension mismatch");
  Rho = U * Rho * U.adjoint();
}

void DensityMatrix::applyPauliExp(const PauliString &P, double Theta) {
  // e^{i Theta P} rho e^{-i Theta P} expanded with P rho, rho P, P rho P:
  //   cos^2 rho + i sin cos (P rho - rho P) + sin^2 P rho P.
  const size_t Dim = Rho.rows();
  const uint64_t XM = P.xMask();
  const double C = std::cos(Theta), S = std::sin(Theta);
  // With P|x> = phi_x |x ^ XM> and P Hermitian, the matrix elements are
  //   (P rho)_{ij}   = conj(phi_i) rho_{i^XM, j}
  //   (rho P)_{ij}   = rho_{i, j^XM} phi_j
  //   (P rho P)_{ij} = conj(phi_i) rho_{i^XM, j^XM} phi_j.
  Matrix Out(Dim, Dim);
  for (uint64_t I = 0; I < Dim; ++I) {
    Complex PhiIc = std::conj(P.applyToBasis(I));
    for (uint64_t J = 0; J < Dim; ++J) {
      Complex PhiJ = P.applyToBasis(J);
      Complex Term = C * C * Rho.at(I, J);
      Term += Complex(0, S * C) * (PhiIc * Rho.at(I ^ XM, J) -
                                   Rho.at(I, J ^ XM) * PhiJ);
      Term += S * S * PhiIc * Rho.at(I ^ XM, J ^ XM) * PhiJ;
      Out.at(I, J) = Term;
    }
  }
  Rho = std::move(Out);
}

void DensityMatrix::applySamplingChannel(const Hamiltonian &H,
                                         const std::vector<double> &Pi,
                                         double Tau) {
  // A real error, not an assert: in release builds a mismatched
  // distribution would silently read out of bounds below.
  if (Pi.size() != H.numTerms())
    throw std::invalid_argument(
        "applySamplingChannel: distribution has " +
        std::to_string(Pi.size()) + " probabilities for " +
        std::to_string(H.numTerms()) + " Hamiltonian terms");
  const size_t Dim = Rho.rows();
  Matrix Mixture(Dim, Dim);
  DensityMatrix Scratch(NQubits, Matrix(Dim, Dim));
  for (size_t J = 0; J < H.numTerms(); ++J) {
    if (Pi[J] == 0.0)
      continue;
    Scratch.Rho = Rho;
    double Theta = H.term(J).Coeff >= 0.0 ? Tau : -Tau;
    Scratch.applyPauliExp(H.term(J).String, Theta);
    Scratch.Rho *= Complex(Pi[J], 0.0);
    Mixture += Scratch.Rho;
  }
  Rho = std::move(Mixture);
}

void DensityMatrix::applyChannel(const std::vector<Matrix> &Kraus,
                                 unsigned Qubit) {
  if (Kraus.empty())
    throw std::invalid_argument("applyChannel: empty Kraus set");
  for (const Matrix &K : Kraus)
    if (K.rows() != 2 || K.cols() != 2)
      throw std::invalid_argument(
          "applyChannel: Kraus operators must be 2x2 single-qubit matrices");
  if (Qubit >= NQubits)
    throw std::invalid_argument("applyChannel: qubit " +
                                std::to_string(Qubit) + " out of range for " +
                                std::to_string(NQubits) + " qubits");
  const double TraceBefore = trace();
  Matrix Out(Rho.rows(), Rho.cols());
  for (const Matrix &K : Kraus) {
    Matrix Full = embedSingleQubit(K, Qubit, NQubits);
    Out += Full * Rho * Full.adjoint();
  }
  Rho = std::move(Out);
  // Trace drift means the set was not a channel (sum K_i^dag K_i != I);
  // failing here beats producing a quietly sub-normalized state.
  if (std::abs(trace() - TraceBefore) >
      1e-9 * std::max(1.0, std::abs(TraceBefore)))
    throw std::runtime_error(
        "applyChannel: Kraus set is not trace-preserving (trace drifted "
        "from " +
        std::to_string(TraceBefore) + " to " + std::to_string(trace()) + ")");
}

double DensityMatrix::traceDistance(const DensityMatrix &Other) const {
  if (Rho.rows() != Other.Rho.rows())
    throw std::invalid_argument(
        "traceDistance: dimension mismatch (" + std::to_string(Rho.rows()) +
        " vs " + std::to_string(Other.Rho.rows()) + ")");
  // D = (rho - sigma) is Hermitian; ||D||_1 = sum |eigenvalues|. The
  // eigenvalues of a Hermitian complex matrix equal those of the real
  // symmetric embedding [[Re, -Im], [Im, Re]], each doubled.
  Matrix D = Rho - Other.Rho;
  const size_t N = D.rows();
  std::vector<double> Embed(4 * N * N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      double Re = D.at(I, J).real(), Im = D.at(I, J).imag();
      Embed[I * 2 * N + J] = Re;
      Embed[I * 2 * N + (J + N)] = -Im;
      Embed[(I + N) * 2 * N + J] = Im;
      Embed[(I + N) * 2 * N + (J + N)] = Re;
    }
  std::vector<std::complex<double>> Eigs = realEigenvalues(Embed, 2 * N);
  double Sum = 0.0;
  for (const auto &E : Eigs)
    Sum += std::abs(E.real());
  return 0.25 * Sum; // (1/2) * ||D||_1, halving the doubled spectrum
}

Matrix marqsim::embedSingleQubit(const Matrix &Op, unsigned Qubit,
                                 unsigned NumQubits) {
  assert(Op.rows() == 2 && Op.cols() == 2 && "expected a 2x2 operator");
  assert(Qubit < NumQubits && "qubit out of range");
  const size_t Dim = size_t(1) << NumQubits;
  const uint64_t Bit = uint64_t(1) << Qubit;
  Matrix Full(Dim, Dim);
  for (uint64_t I = 0; I < Dim; ++I) {
    const size_t RI = (I & Bit) ? 1 : 0;
    Full.at(I, I & ~Bit) = Op.at(RI, 0);
    Full.at(I, I | Bit) = Op.at(RI, 1);
  }
  return Full;
}

double DensityMatrix::overlap(const StateVector &Psi) const {
  assert(Psi.dim() == Rho.rows() && "dimension mismatch");
  const CVector &A = Psi.amplitudes();
  Complex Acc = 0.0;
  for (size_t I = 0; I < A.size(); ++I)
    for (size_t J = 0; J < A.size(); ++J)
      Acc += std::conj(A[I]) * Rho.at(I, J) * A[J];
  return Acc.real();
}
