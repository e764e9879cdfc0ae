#pragma once
// Tiny command-line flag parser for the example binaries and the scenario
// runner: `--key value`, `--key=value`, and bare boolean flags (`--list`).
// No external dependency, no registration step — callers query by name
// with a default, so every binary keeps sane zero-argument behaviour for
// smoke tests and CI. Each binary lists its flags once in
// reject_unknown(), so a misspelt flag fails instead of being ignored.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace wakurln::util {

class CliArgs {
 public:
  /// Parses argv. Throws std::invalid_argument on a non-flag token. A
  /// `--key` with no following value (end of argv, or another `--flag`
  /// next) is recorded as a boolean flag with an empty value.
  CliArgs(int argc, const char* const* argv);

  /// Throws std::invalid_argument naming the first (in key order) flag
  /// that is not in `accepted` (names without the leading "--").
  void reject_unknown(std::initializer_list<std::string_view> accepted) const;

  /// True if `--key` appeared (with or without a value).
  bool has(const std::string& key) const;

  /// String value, or `fallback` when the flag is absent or value-less.
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Numeric values. `fallback` covers only an absent flag; a present
  /// flag whose value is missing, negative, or malformed throws
  /// std::invalid_argument ("--nodes --seeds 2" must not silently size
  /// the world with the default).
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace wakurln::util
