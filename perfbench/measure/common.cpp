#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void RunResult::fail(const std::string& reason) {
  ++failed;
  if (failures.size() < 8) failures.push_back(reason);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest value with at least q of the sample at or below it.
  const std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(values.size()))));
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

ProcSample sample_proc(pid_t pid) {
  const std::string dir = pid == 0 ? "/proc/self" : "/proc/" + std::to_string(pid);
  ProcSample out;
  {
    std::ifstream in(dir + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) throw std::runtime_error("cannot read " + dir + "/stat");
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    double utime = 0;
    double stime = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    out.cpu_s = (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  std::ifstream status(dir + "/status");
  std::string line;
  while (std::getline(status, line)) {
    const auto value = [&line] {
      double v = 0;
      std::istringstream(line.substr(line.find(':') + 1)) >> v;
      return v;
    };
    if (line.rfind("VmHWM:", 0) == 0) out.hwm_mb = value() / 1024.0;
    if (line.rfind("Threads:", 0) == 0) out.threads = value();
  }
  return out;
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return steal / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double steal_share(double steal_s, double seconds) {
  const double capacity = seconds * static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  return capacity > 0 ? steal_s / capacity : 0.0;
}

std::vector<bool> least_stolen(const std::vector<double>& steal_shares) {
  constexpr double kClean = 0.005;
  std::vector<std::size_t> order(steal_shares.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&steal_shares](std::size_t a, std::size_t b) {
    return steal_shares[a] < steal_shares[b];
  });
  const std::size_t quarter = std::max<std::size_t>(1, order.size() / 4);
  std::vector<bool> pooled(steal_shares.size(), false);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    pooled[order[rank]] = rank < quarter || steal_shares[order[rank]] < kClean;
  }
  return pooled;
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0xffU;  // reply separator: no reply contains the byte 0xff
  h_ *= 0x100000001b3ULL;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v, 16);
  return std::string(buf, ptr);
}

}  // namespace perfbench
