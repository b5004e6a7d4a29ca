// Minimal command-line argument parsing for the CLI tool and benches.
//
// Grammar (explicit, covered by tests/common_args_test.cc):
//   --key value     long option; the next token is consumed as the value
//                   unless it is itself an option token, so negative
//                   numbers ("--rate -5") and dash-prefixed strings
//                   ("--rate -inf") both work.  An option listed in the
//                   constructor's `flags` set never consumes a value, so
//                   "--csv sweep" keeps "sweep" positional; an UNdeclared
//                   bare flag followed by a positional swallows it --
//                   write "sub --csv", not "--csv sub", for those.
//   --key=value     long option with inline value ("--key=" is an empty
//                   value; numeric getters reject it with a clear error).
//   --verbose       bare flag (stored with an empty value).
//   -h              short flag: exactly '-' plus one letter, stored under
//                   its body ("h").  Short flags never consume a value;
//                   "-5", "-.5", "-inf" are plain values, not flags.
//   --              end-of-options separator; everything after is
//                   positional.
// Option names must start with a letter: "--5" is a plain value token, so
// "--rate --5" assigns the literal "--5" and GetDouble reports it instead
// of silently creating two bare flags.  The first positional token is the
// subcommand; the constructor throws std::invalid_argument naming any
// other positional token, so "plan bert" is an error rather than a plan
// of the default --model.  No external dependencies; deterministic error
// messages.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pe {

class ArgParser {
 public:
  // `flags` lists option names known to take no value ("csv", "help");
  // they never consume the following token.  Throws
  // std::invalid_argument on a second positional token.
  ArgParser(int argc, const char* const* argv,
            std::vector<std::string> flags = {});

  // The positional token, if any (the subcommand).
  std::optional<std::string> Subcommand() const { return subcommand_; }

  bool HasFlag(const std::string& key) const;

  std::optional<std::string> GetString(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;

  // Throws std::invalid_argument on malformed numbers.
  double GetDouble(const std::string& key, double fallback) const;
  long long GetInt(const std::string& key, long long fallback) const;

  // All unrecognized "--key"s given the set of known keys; used for
  // friendly error reporting.
  std::vector<std::string> UnknownKeys(
      const std::vector<std::string>& known) const;

  // The option as the user spelled it ("--rate", "-h"); "--key" for keys
  // that were never given.  Lets error messages echo the original token.
  std::string Spelling(const std::string& key) const;

 private:
  std::optional<std::string> subcommand_;
  std::map<std::string, std::string> options_;  // key -> value ("" for flag)
  std::map<std::string, std::string> spelling_;  // key -> original token
};

// A parsed `NAME[:key=val,...]` option value (the --scenario and --faults
// grammar): the name plus its raw key/value overrides, in order.
struct NamedRef {
  std::string name;
  std::vector<std::pair<std::string, std::string>> overrides;
};

// Splits "flashcrowd:rate=500,mult=10" into name + key/value overrides.
// Throws std::invalid_argument, its message prefixed "<what>: ", on an
// empty name or a malformed pair.
NamedRef ParseNamedRef(const std::string& ref, const std::string& what);

}  // namespace pe
