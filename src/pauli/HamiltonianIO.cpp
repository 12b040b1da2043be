//===- pauli/HamiltonianIO.cpp - Hamiltonian text format ----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pauli/HamiltonianIO.h"

#include <fstream>
#include <istream>
#include <sstream>

using namespace marqsim;

static void setError(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
}

std::optional<Hamiltonian> marqsim::readHamiltonian(std::istream &IS,
                                                    std::string *Error) {
  std::vector<std::pair<double, std::string>> Terms;
  std::string Line;
  size_t LineNo = 0;
  size_t Width = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    // Strip comments and surrounding whitespace.
    auto Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    std::istringstream SS(Line);
    std::string CoeffText, StringText, Extra;
    if (!(SS >> CoeffText))
      continue; // blank line
    if (!(SS >> StringText)) {
      setError(Error, "line " + std::to_string(LineNo) +
                          ": expected 'coefficient pauli-string'");
      return std::nullopt;
    }
    if (SS >> Extra) {
      setError(Error, "line " + std::to_string(LineNo) +
                          ": trailing content '" + Extra + "'");
      return std::nullopt;
    }
    char *End = nullptr;
    double Coeff = std::strtod(CoeffText.c_str(), &End);
    if (End == CoeffText.c_str() || *End != '\0') {
      setError(Error, "line " + std::to_string(LineNo) +
                          ": malformed coefficient '" + CoeffText + "'");
      return std::nullopt;
    }
    if (!PauliString::parse(StringText)) {
      setError(Error, "line " + std::to_string(LineNo) +
                          ": malformed Pauli string '" + StringText + "'");
      return std::nullopt;
    }
    if (Width == 0)
      Width = StringText.size();
    if (StringText.size() != Width) {
      setError(Error, "line " + std::to_string(LineNo) +
                          ": inconsistent string length (expected " +
                          std::to_string(Width) + ")");
      return std::nullopt;
    }
    Terms.emplace_back(Coeff, StringText);
  }
  if (Terms.empty()) {
    setError(Error, "no terms found");
    return std::nullopt;
  }
  return Hamiltonian::parse(Terms);
}

std::optional<Hamiltonian>
marqsim::readHamiltonianFile(const std::string &Path, std::string *Error) {
  std::ifstream IS(Path);
  if (!IS) {
    setError(Error, "cannot open '" + Path + "'");
    return std::nullopt;
  }
  return readHamiltonian(IS, Error);
}
