//===- pauli/PauliSum.cpp - Complex-weighted Pauli algebra ------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pauli/PauliSum.h"

#include <cmath>

using namespace marqsim;

PauliSum PauliSum::scalar(Complex C) {
  PauliSum S;
  S.add(C, PauliString());
  return S;
}

PauliSum PauliSum::term(Complex C, PauliString P) {
  PauliSum S;
  S.add(C, P);
  return S;
}

bool PauliSum::isZero(double Tol) const {
  for (const auto &[P, C] : Terms)
    if (std::abs(C) > Tol)
      return false;
  return true;
}

void PauliSum::add(Complex C, PauliString P) {
  if (C == Complex(0.0, 0.0))
    return;
  Terms[P] += C;
}

PauliSum PauliSum::operator+(const PauliSum &O) const {
  PauliSum R = *this;
  R += O;
  return R;
}

PauliSum &PauliSum::operator+=(const PauliSum &O) {
  for (const auto &[P, C] : O.Terms)
    Terms[P] += C;
  return *this;
}

PauliSum PauliSum::operator*(Complex C) const {
  PauliSum R;
  for (const auto &[P, Coeff] : Terms)
    R.add(Coeff * C, P);
  return R;
}

PauliSum PauliSum::operator*(const PauliSum &O) const {
  static const Complex IPow[4] = {
      {1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
  PauliSum R;
  for (const auto &[PA, CA] : Terms)
    for (const auto &[PB, CB] : O.Terms) {
      int PhasePow = 0;
      PauliString Prod = PA.multiply(PB, PhasePow);
      R.add(CA * CB * IPow[PhasePow], Prod);
    }
  return R;
}

PauliSum PauliSum::adjoint() const {
  PauliSum R;
  for (const auto &[P, C] : Terms)
    R.add(std::conj(C), P);
  return R;
}

void PauliSum::prune(double Tol) {
  for (auto It = Terms.begin(); It != Terms.end();) {
    if (std::abs(It->second) <= Tol)
      It = Terms.erase(It);
    else
      ++It;
  }
}

bool PauliSum::isHermitian(double Tol) const {
  for (const auto &[P, C] : Terms)
    if (std::fabs(C.imag()) > Tol)
      return false;
  return true;
}

Hamiltonian PauliSum::toHamiltonian(unsigned NumQubits, bool DropIdentity,
                                    double Tol) const {
  assert(isHermitian() && "toHamiltonian requires a Hermitian operator");
  Hamiltonian H(NumQubits);
  for (const auto &[P, C] : Terms) {
    if (DropIdentity && P.isIdentity())
      continue;
    if (std::fabs(C.real()) > Tol)
      H.addTerm(C.real(), P);
  }
  return H;
}
