//===- support/CommandLine.cpp - Tiny flag parser --------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

using namespace marqsim;

CommandLine::CommandLine(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      Positionals.push_back(Arg);
      continue;
    }
    Arg = Arg.substr(2);
    auto Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Flags[Arg.substr(0, Eq)] = Arg.substr(Eq + 1);
      continue;
    }
    // "--name value" form, unless the next token is another flag.
    if (I + 1 < Argc && std::string(Argv[I + 1]).rfind("--", 0) != 0) {
      Flags[Arg] = Argv[I + 1];
      ++I;
      continue;
    }
    Flags[Arg] = "";
  }
}

bool CommandLine::has(const std::string &Name) const {
  return Flags.count(Name) != 0;
}

std::string CommandLine::getString(const std::string &Name,
                                   const std::string &Default) const {
  auto It = Flags.find(Name);
  return It == Flags.end() ? Default : It->second;
}

int64_t CommandLine::getInt(const std::string &Name, int64_t Default) const {
  auto It = Flags.find(Name);
  if (It == Flags.end() || It->second.empty())
    return Default;
  return std::strtoll(It->second.c_str(), nullptr, 10);
}

double CommandLine::getDouble(const std::string &Name, double Default) const {
  auto It = Flags.find(Name);
  if (It == Flags.end() || It->second.empty())
    return Default;
  return std::strtod(It->second.c_str(), nullptr);
}

bool CommandLine::getBool(const std::string &Name, bool Default) const {
  auto It = Flags.find(Name);
  if (It == Flags.end())
    return Default;
  if (It->second.empty() || It->second == "1" || It->second == "true" ||
      It->second == "yes")
    return true;
  return false;
}

std::string
CommandLine::unknownFlag(const std::vector<std::string> &Known,
                         const std::vector<std::string> &AlsoKnown) const {
  for (const auto &KV : Flags)
    if (std::find(Known.begin(), Known.end(), KV.first) == Known.end() &&
        std::find(AlsoKnown.begin(), AlsoKnown.end(), KV.first) ==
            AlsoKnown.end())
      return KV.first;
  return "";
}

bool CommandLine::rejectUnknown(
    const std::vector<std::string> &Known,
    const std::vector<std::string> &AlsoKnown) const {
  std::string Name = unknownFlag(Known, AlsoKnown);
  if (Name.empty())
    return false;
  std::cerr << "error: unknown flag --" << Name << "\n";
  return true;
}

std::optional<size_t> marqsim::mebibytesToBytes(double MiB) {
  if (!(MiB >= 0.0))
    return std::nullopt;
  if (MiB == 0.0)
    return 0;
  constexpr double MaxBytes = 9.0e18;
  return static_cast<size_t>(
      std::min(std::max(std::ceil(MiB * 1024.0 * 1024.0), 1.0), MaxBytes));
}
