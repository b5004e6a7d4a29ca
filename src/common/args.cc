#include "common/args.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace pe {
namespace {

// An option name must start with a letter, so "--rate" is an option while
// "--5" is a plain value token (and can be consumed by a preceding
// "--key").  This keeps negative-ish typos from silently becoming flags.
bool IsLongOption(const std::string& token) {
  return token.size() > 2 && token.rfind("--", 0) == 0 &&
         std::isalpha(static_cast<unsigned char>(token[2])) != 0;
}

// "-h" style short flags are exactly one letter.  Anything longer or
// non-alphabetic after the '-' is a plain value: "-5", "-.5" (negative
// numbers) and "-inf" / "-foo" (string values) are all consumable by a
// preceding "--key".
bool IsShortFlag(const std::string& token) {
  return token.size() == 2 && token[0] == '-' &&
         std::isalpha(static_cast<unsigned char>(token[1])) != 0;
}

bool IsOptionToken(const std::string& token) {
  return token == "--" || IsLongOption(token) || IsShortFlag(token);
}

[[noreturn]] void ThrowBadRef(const std::string& what, const char* problem,
                              const std::string& token) {
  std::string message = what;
  message += ": ";
  message += problem;
  message += " '";
  message += token;
  message += "'";
  throw std::invalid_argument(message);
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv,
                     std::vector<std::string> flags) {
  const auto is_declared_flag = [&flags](const std::string& name) {
    return std::find(flags.begin(), flags.end(), name) != flags.end();
  };
  const auto positional = [this](const std::string& token) {
    if (subcommand_) {
      std::string message = "unexpected argument '";
      message += token;
      message += "'";
      throw std::invalid_argument(message);
    }
    subcommand_ = token;
  };
  bool options_done = false;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (options_done) {
      positional(token);
    } else if (token == "--") {
      options_done = true;  // conventional end-of-options separator
    } else if (IsLongOption(token)) {
      const std::string body = token.substr(2);
      const auto eq = body.find('=');
      if (eq != std::string::npos) {
        const std::string key = body.substr(0, eq);
        options_[key] = body.substr(eq + 1);
        spelling_[key] = "--" + key;
      } else if (!is_declared_flag(body) && i + 1 < argc &&
                 !IsOptionToken(argv[i + 1])) {
        // Consumes any plain value token, including negative numbers
        // ("--rate -5") and malformed option-ish tokens ("--rate --5",
        // which GetDouble later rejects with an explicit error).
        options_[body] = argv[++i];
        spelling_[body] = token;
      } else {
        options_[body] = "";  // bare flag
        spelling_[body] = token;
      }
    } else if (IsShortFlag(token)) {
      options_[token.substr(1)] = "";  // short flags never take a value
      spelling_[token.substr(1)] = token;
    } else {
      positional(token);
    }
  }
}

bool ArgParser::HasFlag(const std::string& key) const {
  return options_.count(key) > 0;
}

std::optional<std::string> ArgParser::GetString(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::GetString(const std::string& key,
                                 const std::string& fallback) const {
  return GetString(key).value_or(fallback);
}

double ArgParser::GetDouble(const std::string& key, double fallback) const {
  const auto v = GetString(key);
  if (!v) return fallback;
  if (v->empty()) {
    throw std::invalid_argument("--" + key +
                                ": expected a number but none was given");
  }
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing characters");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + ": expected a number, got '" +
                                *v + "'");
  }
}

long long ArgParser::GetInt(const std::string& key, long long fallback) const {
  const auto v = GetString(key);
  if (!v) return fallback;
  if (v->empty()) {
    throw std::invalid_argument("--" + key +
                                ": expected an integer but none was given");
  }
  try {
    std::size_t pos = 0;
    const long long parsed = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing characters");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + ": expected an integer, got '" +
                                *v + "'");
  }
}

std::string ArgParser::Spelling(const std::string& key) const {
  const auto it = spelling_.find(key);
  return it == spelling_.end() ? "--" + key : it->second;
}

std::vector<std::string> ArgParser::UnknownKeys(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : options_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      unknown.push_back(key);
    }
  }
  return unknown;
}

NamedRef ParseNamedRef(const std::string& ref, const std::string& what) {
  NamedRef parsed;
  const auto colon = ref.find(':');
  parsed.name = ref.substr(0, colon);
  if (parsed.name.empty()) ThrowBadRef(what, "empty name in", ref);
  if (colon == std::string::npos) return parsed;
  const std::string rest = ref.substr(colon + 1);
  std::string::size_type begin = 0;
  for (;;) {
    const auto comma = rest.find(',', begin);
    const std::string pair = rest.substr(begin, comma - begin);
    const auto eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
      ThrowBadRef(what, "expected key=val, got", pair);
    }
    parsed.overrides.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parsed;
}

}  // namespace pe
