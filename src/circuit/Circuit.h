//===- circuit/Circuit.h - Quantum circuit IR -------------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The gate-level quantum circuit intermediate representation: a flat list
/// of single-qubit gates and CNOTs over an n-qubit register. Gates are
/// applied left to right (so the circuit unitary is the right-to-left
/// operator product). This is the output language of all the compilers in
/// the project and the input of the simulator and the peephole optimizer.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_CIRCUIT_CIRCUIT_H
#define MARQSIM_CIRCUIT_CIRCUIT_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace marqsim {

/// Gate alphabet. The project emits {H, S, Sdg, Rz, CNOT}; the remaining
/// single-qubit gates exist for tests and user circuits.
enum class GateKind : uint8_t {
  H,
  X,
  Y,
  Z,
  S,
  Sdg,
  Rx,
  Ry,
  Rz,
  CNOT,
};

/// Returns a printable mnemonic such as "cx" or "rz".
const char *gateKindName(GateKind K);

/// True for the parameterized rotation gates Rx/Ry/Rz.
bool isRotationGate(GateKind K);

/// One gate instance. For single-qubit gates Qubit1 is unused; for CNOT,
/// Qubit0 is the control and Qubit1 the target.
struct Gate {
  GateKind Kind = GateKind::H;
  unsigned Qubit0 = 0;
  unsigned Qubit1 = 0;
  double Angle = 0.0;

  Gate() = default;
  Gate(GateKind Kind, unsigned Q, double Angle = 0.0)
      : Kind(Kind), Qubit0(Q), Angle(Angle) {
    assert(Kind != GateKind::CNOT && "CNOT needs two qubits");
  }
  Gate(GateKind Kind, unsigned Control, unsigned Target, double Angle)
      : Kind(Kind), Qubit0(Control), Qubit1(Target), Angle(Angle) {}

  static Gate cnot(unsigned Control, unsigned Target) {
    assert(Control != Target && "CNOT control equals target");
    return Gate(GateKind::CNOT, Control, Target, 0.0);
  }

  bool isCNOT() const { return Kind == GateKind::CNOT; }

  /// True if the gate touches qubit \p Q.
  bool actsOn(unsigned Q) const {
    return Qubit0 == Q || (isCNOT() && Qubit1 == Q);
  }

  /// True if the two gates share at least one qubit.
  bool overlaps(const Gate &O) const;

  bool operator==(const Gate &O) const {
    return Kind == O.Kind && Qubit0 == O.Qubit0 &&
           (!isCNOT() || Qubit1 == O.Qubit1) && Angle == O.Angle;
  }
};

/// Aggregate gate statistics (the paper's metrics: CNOT count is the primary
/// objective, single-qubit and total counts are also reported).
struct GateCounts {
  size_t CNOTs = 0;
  size_t SingleQubit = 0;

  size_t total() const { return CNOTs + SingleQubit; }

  GateCounts &operator+=(const GateCounts &O) {
    CNOTs += O.CNOTs;
    SingleQubit += O.SingleQubit;
    return *this;
  }
};

/// A flat quantum circuit over a fixed-size register.
class Circuit {
public:
  Circuit() = default;
  explicit Circuit(unsigned NumQubits) : NQubits(NumQubits) {}

  unsigned numQubits() const { return NQubits; }
  size_t size() const { return Gates.size(); }
  bool empty() const { return Gates.empty(); }

  const Gate &gate(size_t I) const {
    assert(I < Gates.size() && "gate index out of range");
    return Gates[I];
  }
  Gate &mutableGate(size_t I) {
    assert(I < Gates.size() && "gate index out of range");
    return Gates[I];
  }
  const std::vector<Gate> &gates() const { return Gates; }

  /// Appends a gate; asserts that its qubits are inside the register.
  void append(const Gate &G);

  void h(unsigned Q) { append(Gate(GateKind::H, Q)); }
  void x(unsigned Q) { append(Gate(GateKind::X, Q)); }
  void y(unsigned Q) { append(Gate(GateKind::Y, Q)); }
  void z(unsigned Q) { append(Gate(GateKind::Z, Q)); }
  void s(unsigned Q) { append(Gate(GateKind::S, Q)); }
  void sdg(unsigned Q) { append(Gate(GateKind::Sdg, Q)); }
  void rx(unsigned Q, double Angle) { append(Gate(GateKind::Rx, Q, Angle)); }
  void ry(unsigned Q, double Angle) { append(Gate(GateKind::Ry, Q, Angle)); }
  void rz(unsigned Q, double Angle) { append(Gate(GateKind::Rz, Q, Angle)); }
  void cnot(unsigned Control, unsigned Target) {
    append(Gate::cnot(Control, Target));
  }

  /// Counts CNOT and single-qubit gates.
  GateCounts counts() const;

  /// Circuit depth: the length of the longest dependency chain, with each
  /// gate occupying one layer on every qubit it touches (the depth metric
  /// Paulihedral-style compilers optimize; reported by the benches).
  size_t depth() const;

private:
  unsigned NQubits = 0;
  std::vector<Gate> Gates;
};

} // namespace marqsim

#endif // MARQSIM_CIRCUIT_CIRCUIT_H
