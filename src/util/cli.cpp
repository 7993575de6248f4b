#include "util/cli.hpp"

#include <charconv>
#include <stdexcept>

#include "util/check.hpp"

namespace decycle::util {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    DECYCLE_CHECK_MSG(arg.substr(0, 2) == "--",
                      "arguments must look like --key=value, got: " + std::string(arg));
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    std::string key(body.substr(0, eq));
    std::string value = eq != std::string_view::npos ? std::string(body.substr(eq + 1)) : "1";
    if (eq == std::string_view::npos && i + 1 < argc &&
        std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      value = argv[++i];
    }
    const auto [it, inserted] = values_.emplace(std::move(key), std::move(value));
    // A silently dropped repeat would run a different workload than the
    // command line reads (e.g. --k=4 --k=5 keeping only k=4).
    DECYCLE_CHECK_MSG(inserted, "duplicate argument --" + it->first +
                                    " (use a comma list for multiple values)");
  }
}

std::optional<std::string> Args::lookup(std::string_view key) const {
  used_[std::string(key)] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t Args::get_u64(std::string_view key, std::uint64_t fallback) const {
  const auto raw = lookup(key);
  if (!raw) return fallback;
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(raw->data(), raw->data() + raw->size(), out);
  DECYCLE_CHECK_MSG(ec == std::errc() && ptr == raw->data() + raw->size(),
                    "expected unsigned integer for --" + std::string(key));
  return out;
}

std::int64_t Args::get_i64(std::string_view key, std::int64_t fallback) const {
  const auto raw = lookup(key);
  if (!raw) return fallback;
  std::int64_t out = 0;
  const auto [ptr, ec] = std::from_chars(raw->data(), raw->data() + raw->size(), out);
  DECYCLE_CHECK_MSG(ec == std::errc() && ptr == raw->data() + raw->size(),
                    "expected integer for --" + std::string(key));
  return out;
}

double Args::get_double(std::string_view key, double fallback) const {
  const auto raw = lookup(key);
  if (!raw) return fallback;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*raw, &pos);
    DECYCLE_CHECK_MSG(pos == raw->size(), "trailing characters in --" + std::string(key));
    return out;
  } catch (const std::invalid_argument&) {
    DECYCLE_CHECK_MSG(false, "expected number for --" + std::string(key));
  }
  return fallback;  // unreachable
}

bool Args::get_bool(std::string_view key, bool fallback) const {
  const auto raw = lookup(key);
  if (!raw) return fallback;
  if (*raw == "1" || *raw == "true" || *raw == "yes" || *raw == "on") return true;
  if (*raw == "0" || *raw == "false" || *raw == "no" || *raw == "off") return false;
  DECYCLE_CHECK_MSG(false, "expected boolean for --" + std::string(key));
  return fallback;  // unreachable
}

std::string Args::get_string(std::string_view key, std::string_view fallback) const {
  const auto raw = lookup(key);
  if (!raw) return std::string(fallback);
  return *raw;
}

bool Args::has(std::string_view key) const { return lookup(key).has_value(); }

std::vector<std::pair<std::string, std::string>> Args::take_unconsumed() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, value] : values_) {
    const auto it = used_.find(key);
    if (it == used_.end() || !it->second) {
      out.emplace_back(key, value);
      used_[key] = true;
    }
  }
  return out;
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    const auto it = used_.find(key);
    if (it == used_.end() || !it->second) out.push_back(key);
  }
  return out;
}

void Args::reject_unknown() const {
  const auto leftover = unused();
  if (leftover.empty()) return;
  std::string msg = "unknown arguments:";
  for (const auto& key : leftover) msg += " --" + key;
  DECYCLE_CHECK_MSG(false, msg);
}

}  // namespace decycle::util
