//===- support/CommandLine.h - Tiny flag parser -----------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal command-line flag parsing for the benchmark harnesses.
///
/// Supports `--name=value`, `--name value`, and bare boolean `--name`.
/// flagNames() lists every flag given, so a harness can reject the ones it
/// does not read (typos). This keeps every table/figure binary
/// self-describing without an external dependency.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SUPPORT_COMMANDLINE_H
#define MARQSIM_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace marqsim {

/// Parsed command-line options for a benchmark or example binary.
class CommandLine {
public:
  /// Parses argv. Flags start with "--"; everything else is a positional.
  CommandLine(int Argc, const char *const *Argv);

  /// Returns true if the flag appeared at all.
  bool has(const std::string &Name) const;

  /// Returns the string value of a flag, or \p Default if absent.
  std::string getString(const std::string &Name,
                        const std::string &Default = "") const;

  /// Returns the integer value of a flag, or \p Default if absent.
  int64_t getInt(const std::string &Name, int64_t Default) const;

  /// Returns the double value of a flag, or \p Default if absent.
  double getDouble(const std::string &Name, double Default) const;

  /// Returns the boolean value: present without value means true.
  bool getBool(const std::string &Name, bool Default = false) const;

  const std::vector<std::string> &positionals() const { return Positionals; }

  /// Returns the name of every flag given, sorted, without the leading
  /// "--". A harness compares them against the flags it reads to reject
  /// typos.
  std::vector<std::string> flagNames() const;

private:
  std::map<std::string, std::string> Flags;
  std::vector<std::string> Positionals;
};

} // namespace marqsim

#endif // MARQSIM_SUPPORT_COMMANDLINE_H
