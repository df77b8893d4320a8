// memreal_perfbench: runs one benchmark workload and prints every metric
// by name and unit, then one JSON result object as the last line.
//
//   memreal_perfbench --workload geo_churn|serve_mixed|vm_heap_sharded
//                     --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 additionally
// replays the workload through the timing proxies and reports the
// per-layer metrics (and writes its spans to DIR when given).  Exit
// status: 0 = ran and every correctness check held, 1 = a check failed,
// 2 = bad arguments or a configuration the pre-flight check refuses.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "memreal_perfbench: " << why
            << "\nusage: memreal_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\nworkloads:";
  for (const auto& s : perfbench::workload_specs()) std::cerr << " " << s.name;
  std::cerr << "\n";
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v) || v < 0) {
    usage(flag + " needs a non-negative number, got '" + text + "'");
  }
  return v;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      const double v = parse_number(flag, value);
      if (v != std::floor(v) || v > 9e15) usage("--seed must be an integer");
      o.seed = static_cast<std::uint64_t>(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = parse_number(flag, value);
      if (o.seconds < 1 || o.seconds > 60) usage("--seconds must be in [1, 60]");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(o.workload);
  if (spec == nullptr) usage("unknown workload '" + o.workload + "'");
  const std::string refused = perfbench::preflight(*spec);
  if (!refused.empty()) {
    std::cerr << "memreal_perfbench: refusing " << spec->name << ": "
              << refused << "\n";
    return 2;
  }

  perfbench::Result r = perfbench::run_workload(*spec, o);
  for (const std::string& note : r.notes) std::cout << note << "\n";
  std::cout << spec->name << " seed " << o.seed << ": " << r.attempted
            << " operations, " << r.failed << " failed (failed_frac "
            << (r.attempted ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 0.0)
            << ")\n";
  const auto& metrics = o.trace ? r.per_layer : r.end_to_end;
  for (const auto* list : {&r.end_to_end, &r.tails, &r.per_layer}) {
    for (const perfbench::Metric& m : *list) {
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
      if (!std::isfinite(m.value)) {
        r.correct = false;
        r.errors.push_back(m.name + " is not finite");
      }
    }
  }
  for (const std::string& e : r.errors) std::cerr << "error: " << e << "\n";
  if (r.attempted == 0) r.attempted = 1;  // a run that died before any op

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " +
            json_number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return r.correct ? 0 : 1;
}
