/// \file cli.hpp
/// \brief Tiny --key=value command-line parser for examples and benches.
///
/// Every experiment binary accepts overrides like `--n=100000 --k=7
/// --seed=42`; unknown keys are an error so typos do not silently run the
/// default workload. Not a general-purpose CLI library — exactly what the
/// executables in this repository need.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace decycle::util {

class Args {
 public:
  /// Parses argv. Accepts "--key=value", "--key value" (when the next token
  /// does not start with "--") and "--flag" (value "1").
  /// Throws CheckError on malformed arguments.
  Args(int argc, const char* const* argv);

  /// Typed access with defaults. Throws CheckError if the value does not parse.
  [[nodiscard]] std::uint64_t get_u64(std::string_view key, std::uint64_t fallback) const;
  [[nodiscard]] std::int64_t get_i64(std::string_view key, std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key, std::string_view fallback) const;

  [[nodiscard]] bool has(std::string_view key) const;

  /// Keys that were provided but never read — call at the end of main to
  /// reject typos. Returns empty vector when everything was consumed.
  [[nodiscard]] std::vector<std::string> unused() const;

  /// Key=value pairs not read so far, in key order, marked as consumed.
  /// Lets a binary peel off its own flags and forward the rest to a second
  /// parser that owns the error reporting (decycle_lab forwards these as
  /// scenario-matrix tokens).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> take_unconsumed() const;

  /// Convenience: throws if unused() is non-empty.
  void reject_unknown() const;

 private:
  [[nodiscard]] std::optional<std::string> lookup(std::string_view key) const;

  std::map<std::string, std::string, std::less<>> values_;
  mutable std::map<std::string, bool, std::less<>> used_;
};

}  // namespace decycle::util
