/// \file main.cpp
/// \brief perfbench_measure: runs one benchmark workload and prints one JSON
/// line with every metric it measured (name -> value and unit), the
/// operation accounting and the failure reasons. perfbench/run.py builds and
/// calls it; see perfbench/README.md.
///
///   perfbench_measure --workload=serve_miss --seed=1 --seconds=20 --trace=0
///                    --daemon=.bench_build/decycle/decycle_serve --out=DIR
///   perfbench_measure --self-test
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "workload.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += json_string(items[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") cfg.workload = value;
    else if (key == "--seed") cfg.seed = std::stoull(value);
    else if (key == "--seconds") cfg.seconds = std::stod(value);
    else if (key == "--trace") cfg.trace = value == "1";
    else if (key == "--smoke") cfg.smoke = true;
    else if (key == "--daemon") cfg.daemon = value;
    else if (key == "--out") cfg.out_dir = value;
    else if (key == "--self-test") selftest = true;
    else {
      std::cerr << "perfbench_measure: unknown flag " << arg
                << " (flags: --workload= --seed= --seconds= --trace= --smoke --daemon= --out= "
                   "--self-test)\n";
      return 2;
    }
  }
  if (selftest) return perfbench::run_selftest() == 0 ? 0 : 1;

  try {
    const perfbench::Workload w = perfbench::parse_workload(cfg.workload);
    const perfbench::RunResult res =
        w == perfbench::Workload::kLab ? perfbench::run_lab(cfg) : perfbench::run_serving(cfg);
    std::ostringstream out;
    out << "{\"correct\":" << (res.failed == 0 ? "true" : "false")
        << ",\"attempted\":" << res.attempted << ",\"failed\":" << res.failed << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : res.metrics) {
      out << (first ? "" : ",") << json_string(name) << ":{\"value\":" << json_number(m.value)
          << ",\"unit\":" << json_string(m.unit) << "}";
      first = false;
    }
    out << "},\"failures\":" << json_list(res.failures) << ",\"notes\":" << json_list(res.notes)
        << "}";
    std::cout << out.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_measure: " << e.what() << "\n";
    return 3;
  }
}
