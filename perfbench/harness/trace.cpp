#include "trace.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kWorkload: return "workload";
    case Layer::kNet: return "net";
    case Layer::kTestbed: return "testbed";
    case Layer::kSim: return "sim";
    case Layer::kExpress: return "express";
    case Layer::kAudit: return "audit";
    case Layer::kBench: return "bench";
  }
  return "bench";
}

Tracer::Tracer(bool armed)
    : armed_(armed), epoch_(std::chrono::steady_clock::now()) {
  if (armed_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int32_t Tracer::open(const char* name, Layer layer) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, layer, parent, now_ns(), 0});
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

double Tracer::seconds(std::int32_t index) const {
  const Span& s = spans_.at(static_cast<std::size_t>(index));
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::vector<double> Tracer::durations(const char* name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      out.push_back(seconds(static_cast<std::int32_t>(i)));
    }
  }
  return out;
}

std::array<double, kLayerCount> Tracer::self_seconds(std::int32_t root) const {
  // Spans are recorded in open order, so every descendant of `root`
  // follows it and a span's parent precedes it: one forward pass marks
  // the subtree, and each member charges its duration to its own layer
  // and takes it back from its parent's.
  std::vector<char> inside(spans_.size(), 0);
  std::array<double, kLayerCount> self{};
  for (auto i = static_cast<std::size_t>(root); i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const bool member = i == static_cast<std::size_t>(root) ||
                        (s.parent >= 0 &&
                         inside[static_cast<std::size_t>(s.parent)] != 0);
    if (!member) continue;
    inside[i] = 1;
    const double d = seconds(static_cast<std::int32_t>(i));
    self[static_cast<std::size_t>(s.layer)] += d;
    if (i != static_cast<std::size_t>(root)) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      self[static_cast<std::size_t>(p.layer)] -= d;
    }
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"layer\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.parent, s.name, layer_name(s.layer),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
