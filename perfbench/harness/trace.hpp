// Wall-clock spans recorded from the benchmark's own files.
//
// Each span wraps one public call into a simulator layer (topology
// generation, Network construction, attach, run_until slices,
// set_link_up, host calls, audits). Spans nest through an open-span
// stack, are kept in memory, and are written out when the run ends.
// A layer's self time is the sum over its spans of the span's duration
// minus the part its child spans cover. A disarmed tracer records
// nothing; ScopedSpan then costs one branch.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The repository's modules, plus `bench` for the harness's own time
/// between calls.
enum class Layer : std::uint8_t {
  kWorkload,
  kNet,
  kTestbed,
  kSim,
  kExpress,
  kAudit,
  kBench,
};
inline constexpr std::size_t kLayerCount = 7;

[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  const char* name = "";  ///< static string: the call the span wraps
  Layer layer = Layer::kBench;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool armed);

  [[nodiscard]] bool armed() const { return armed_; }

  std::int32_t open(const char* name, Layer layer);
  void close(std::int32_t index);

  /// Duration in seconds of span `index`.
  [[nodiscard]] double seconds(std::int32_t index) const;
  /// Durations in seconds of every span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations(const char* name) const;
  /// Self seconds per layer over the subtree rooted at span `root`
  /// (the root included). They sum to the root's duration.
  [[nodiscard]] std::array<double, kLayerCount> self_seconds(
      std::int32_t root) const;

  /// Write every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool armed_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, Layer layer)
      : tracer_(tracer.armed() ? &tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->open(name, layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  [[nodiscard]] std::int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace perfbench
