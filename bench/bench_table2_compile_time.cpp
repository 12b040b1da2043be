//===- bench/bench_table2_compile_time.cpp - Paper Table 2 -------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 2 ("Compilation time analysis"): wall-clock time to
// (a) generate the transition matrices Pqd / Pgc / Prp and (b) sample and
// emit the circuit for the three configurations, on randomly generated
// Hamiltonians with {10, 20, 30} qubits x {100, 500, 1000} Pauli strings
// (t = pi/4, eps = 0.05, exactly the paper's setting).
//
// Absolute times are not comparable to the paper (C++ vs Python/networkx);
// the *scaling* with the string count is the reproduced shape: matrix
// generation is dominated by the MCFP (~n^2..n^3 in strings, insensitive
// to qubit count), circuit generation scales with N and string count.
//
// Flags: --strings=100,500,1000  --qubits=10,20,30  --rounds (Prp rounds,
// paper: 100, default 4)  --paper for the full setting.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "hamgen/Models.h"
#include "support/Timer.h"

#include <cmath>
#include <iostream>
#include <sstream>

using namespace marqsim;

static std::vector<int64_t> parseList(const std::string &Text) {
  std::vector<int64_t> Out;
  std::stringstream SS(Text);
  std::string Item;
  while (std::getline(SS, Item, ','))
    if (!Item.empty())
      Out.push_back(std::strtoll(Item.c_str(), nullptr, 10));
  return Out;
}

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  bool Paper = CL.getBool("paper");
  std::vector<int64_t> Qubits = parseList(CL.getString("qubits", "10,20,30"));
  std::vector<int64_t> Strings =
      parseList(CL.getString("strings", "100,500,1000"));
  unsigned Rounds =
      static_cast<unsigned>(CL.getInt("rounds", Paper ? 100 : 4));
  double T = M_PI / 4.0;
  double Eps = 0.05;
  // Random Hamiltonians are rescaled to a moderate lambda so the sampling
  // budget N stays in the paper's regime regardless of the term count.
  double Lambda = CL.getDouble("lambda", 20.0);

  std::cout << "Table 2: compilation time analysis (t=pi/4, eps=0.05, "
               "lambda=" << formatDouble(Lambda)
            << ", Prp rounds=" << Rounds << ")\n\n";
  Table Out({"Qubit#", "String#", "N", "Pqd(s)", "Pgc(s)", "Prp(s)",
             "circ Baseline(s)", "circ GC(s)", "circ GC-RP(s)"});

  for (int64_t Q : Qubits) {
    for (int64_t S : Strings) {
      RNG Gen(0xBEEF + static_cast<uint64_t>(Q * 1000 + S));
      Hamiltonian H =
          makeRandomHamiltonian(static_cast<unsigned>(Q),
                                static_cast<size_t>(S), Gen)
              .rescaledToLambda(Lambda)
              .splitLargeTerms();

      Timer TQd;
      TransitionMatrix Pqd = buildQDrift(H);
      double TimeQd = TQd.seconds();

      Timer TGc;
      TransitionMatrix Pgc = buildGateCancellation(H);
      double TimeGc = TGc.seconds();

      Timer TRp;
      RNG PerturbRng(0x5EED);
      TransitionMatrix Prp = buildRandomPerturbation(H, Rounds, PerturbRng);
      double TimeRp = TRp.seconds();

      TransitionMatrix MGc =
          TransitionMatrix::combine({&Pqd, &Pgc}, {0.4, 0.6});
      TransitionMatrix MRp =
          TransitionMatrix::combine({&Pqd, &Pgc, &Prp}, {0.4, 0.3, 0.3});

      size_t N = qdriftSampleCount(H.lambda(), T, Eps);
      // Circuit-generation time via the engine: strategy construction
      // (alias tables) plus one sampled shot lowered to gates, matching the
      // paper's "circuit generation" column. compileOne only counts gates,
      // so the lowering is timed explicitly.
      CompilerEngine Engine;
      auto TimeCircuit = [&](const TransitionMatrix &P) {
        Timer TC;
        SamplingStrategy Strategy(std::make_shared<const HTTGraph>(H, P), T,
                                  Eps);
        CompilationResult R = Engine.compileOne(Strategy, 0xCAFE);
        Circuit C = R.circuit();
        (void)C;
        return TC.seconds();
      };
      double CBase = TimeCircuit(Pqd);
      double CGc = TimeCircuit(MGc);
      double CRp = TimeCircuit(MRp);

      Out.addRow({std::to_string(Q), std::to_string(S), std::to_string(N),
                  formatDouble(TimeQd), formatDouble(TimeGc),
                  formatDouble(TimeRp), formatDouble(CBase),
                  formatDouble(CGc), formatDouble(CRp)});
    }
  }
  Out.print(std::cout);
  std::cout << "\nPaper shape to check: times depend almost entirely on the "
               "string count, not\nthe qubit count; Pgc/Prp (MCFP) dominate "
               "matrix generation and grow\nsuperlinearly in the string "
               "count; circuit generation is linear in N.\n";
  return 0;
}
