#include "util/cli.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace wakurln::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      throw std::invalid_argument("unexpected argument: " + token +
                                  " (flags are --key value or --key=value)");
    }
    const std::string::size_type eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(2, eq - 2)] = token.substr(eq + 1);
      continue;
    }
    const std::string key = token.substr(2);
    // A flag is boolean unless the next token is a value (not another flag).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "";
    }
  }
}

void CliArgs::reject_unknown(std::initializer_list<std::string_view> accepted) const {
  for (const auto& [key, value] : values_) {
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
}

bool CliArgs::has(const std::string& key) const { return values_.contains(key); }

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() || it->second.empty() ? fallback : it->second;
}

std::uint64_t CliArgs::get_u64(const std::string& key, std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // std::stoull alone would accept "-5" (wrapping) and "5x" (trailing
  // garbage); a numeric flag with a missing value ("--nodes --seeds 2")
  // must also fail loudly rather than silently use the fallback.
  const std::string& raw = it->second;
  const bool all_digits =
      !raw.empty() && raw.find_first_not_of("0123456789") == std::string::npos;
  if (all_digits) {
    try {
      return std::stoull(raw);
    } catch (const std::exception&) {
      // out of range; fall through to the error below
    }
  }
  throw std::invalid_argument("--" + key + " expects an unsigned integer, got '" +
                              raw + "'");
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& raw = it->second;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(raw, &consumed);
    if (consumed == raw.size() && !raw.empty()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("--" + key + " expects a number, got '" + raw + "'");
}

}  // namespace wakurln::util
