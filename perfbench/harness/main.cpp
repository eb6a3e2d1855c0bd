// perfbench: one workload of the end-to-end benchmark per process.
//
//   perfbench --workload <name> --seed <n> [--trace-out <spans.jsonl>]
//   perfbench --selftest
//
// Prints one JSON object on its last line: timings, peak RSS, operations
// attempted and failed, the wire counters that must repeat exactly for
// one seed, and the per-layer metrics. --trace-out arms the span tracer
// and writes the spans there when the run ends. Exit status: 0 when no
// operation failed, 1 when some did, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

void print_outcome(const std::string& workload, const perfbench::Options& o,
                   const perfbench::Outcome& out) {
  std::printf("{\"workload\": %s, \"seed\": %llu, \"traced\": %s",
              quoted(workload).c_str(),
              static_cast<unsigned long long>(o.seed),
              o.traced ? "true" : "false");
  std::printf(", \"setup_s\": %.9g, \"run_s\": %.9g, \"peak_rss_mb\": %.9g",
              out.setup_s, out.run_s, out.peak_rss_mb);
  std::printf(", \"deliveries\": %llu, \"attempted\": %llu, \"failed\": %llu",
              static_cast<unsigned long long>(out.deliveries),
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  std::printf(", \"problems\": [");
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", quoted(out.problems[i]).c_str());
  }
  std::printf("], \"wire\": {");
  for (std::size_t i = 0; i < out.wire.size(); ++i) {
    std::printf("%s\"%s\": %llu", i ? ", " : "", out.wire[i].first.c_str(),
                static_cast<unsigned long long>(out.wire[i].second));
  }
  std::printf("}, \"layers\": {");
  for (std::size_t i = 0; i < out.layers.size(); ++i) {
    std::printf("%s\"%s\": %.9g", i ? ", " : "", out.layers[i].first.c_str(),
                out.layers[i].second);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> "
               "[--trace-out <path>] | --selftest\nworkloads:");
  for (const auto& n : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::self_test() ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage();
    } else if (arg == "--trace-out") {
      options.traced = true;
      options.trace_out = value;
    } else {
      return usage();
    }
  }
  perfbench::Outcome out;
  if (!perfbench::run_workload(workload, options, out)) return usage();
  print_outcome(workload, options, out);
  return out.failed == 0 ? 0 : 1;
}
