// perfbench: wall-clock benchmark of the amuse event bus.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Prints a human-readable summary, then, as the last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status 0 when the run completed (its checks are reported in
// "correct"), 2 on bad arguments, 1 when the cell could not be set up.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "checker.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --self-test\nworkloads:");
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

void print_result(const perfbench::RunOptions& o,
                  const perfbench::RunResult& r) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d: %s, %llu attempted, "
              "%llu failed\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, r.correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::string& m : r.messages) {
    std::printf("  check failed: %s\n", m.c_str());
  }
  for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), v, m.unit.c_str());
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + buf +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }

  if (self_test) {
    std::string report;
    bool ok = perfbench::checker_self_test(&report);
    std::printf("checker self-test: %s%s\n", ok ? "every check fires" : "FAILED: ",
                report.c_str());
    return ok ? 0 : 1;
  }
  if (!have_workload || !(o.seconds > 0)) return usage();
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known |= w == o.workload;
  if (!known) return usage();

  try {
    perfbench::RunResult r = perfbench::run_workload(o);
    print_result(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
