//===- bench/bench_fig11_spectra_example.cpp - Paper Fig. 11 -----------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Fig. 11: the spectra of the two transition matrices of the
// paper's Example 5.3 Hamiltonian
//   H = 1.0 IIIZY + 1.0 XXIII + 0.7 ZXZYI + 0.5 IIZZX + 0.3 XXYYZ.
// Subfigure (a): Pqd is rank one, spectrum {1, 0, 0, 0, 0}.
// Subfigure (b): P = 0.4 Pqd + 0.6 Pgc has non-trivial secondary
// eigenvalues (the paper reports 1, 0.46, 0.46, 0.25, 0).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/CNOTCountOracle.h"

#include <cmath>
#include <iostream>

using namespace marqsim;

static void printSpectrum(const std::string &Label,
                          const TransitionMatrix &P) {
  std::cout << Label << "\n";
  Table T({"i", "|lambda_i|", "Re", "Im"});
  auto Eigs = P.spectrum();
  for (size_t I = 0; I < Eigs.size(); ++I)
    T.addRow({std::to_string(I + 1), formatDouble(std::abs(Eigs[I])),
              formatDouble(Eigs[I].real()), formatDouble(Eigs[I].imag())});
  T.print(std::cout);
  std::cout << "\n";
}

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  if (CL.rejectUnknown({}))
    return 1;
  Hamiltonian H = Hamiltonian::parse({{1.0, "IIIZY"},
                                      {1.0, "XXIII"},
                                      {0.7, "ZXZYI"},
                                      {0.5, "IIZZX"},
                                      {0.3, "XXYYZ"}});

  std::cout << "Fig. 11: transition matrix spectra (Example 5.3)\n\n";
  TransitionMatrix Pqd = buildQDrift(H);
  printSpectrum("(a) Spectra of Pqd (rank-1: {1, 0, 0, 0, 0})", Pqd);

  TransitionMatrix Pgc = buildGateCancellation(H);
  TransitionMatrix P = combineWithQDrift(H, Pgc, 0.4);
  printSpectrum("(b) Spectra of P = 0.4 Pqd + 0.6 Pgc "
                "(paper: {1, 0.46, 0.46, 0.25, 0})",
                P);

  std::cout << "Expected CNOTs per transition (Prop. 5.1 objective):\n";
  std::vector<double> Pi = H.stationaryDistribution();
  Table T({"matrix", "E[CNOTs/transition]"});
  T.addRow({"Pqd", formatDouble(expectedTransitionCNOTs(H, Pqd, Pi))});
  T.addRow(
      {"0.4Pqd+0.6Pgc", formatDouble(expectedTransitionCNOTs(H, P, Pi))});
  T.print(std::cout);
  return 0;
}
