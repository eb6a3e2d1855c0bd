// The benchmark's workloads. Each drives the simulator only through its
// public calls and returns its timings, its operation counts, the wire
// counters that must repeat exactly for one seed, and the per-layer
// metrics of the run.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  /// Arm the span tracer; per-layer timings come only from armed runs.
  bool traced = false;
  /// Where an armed run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Outcome {
  double setup_s = 0;  ///< topology generation until the network can run
  double run_s = 0;    ///< the scenario, up to quiescence
  double peak_rss_mb = 0;
  std::uint64_t deliveries = 0;  ///< express.host.data_received
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< the first few failures, described
  std::vector<std::pair<std::string, std::uint64_t>> wire;
  std::vector<std::pair<std::string, double>> layers;
};

/// Names accepted by run_workload().
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload end to end. Unknown names return false.
bool run_workload(const std::string& name, const Options& options,
                  Outcome& out);

/// Tiny runs with injected faults that the checks must catch, and the
/// same runs without faults that must pass. Prints one line per case and
/// returns true when every case came out as expected.
bool self_test();

}  // namespace perfbench
