// Benchmark-side span recorder for the traced run.
//
// Spans are recorded only by the benchmark's own code, around each call it
// makes into a layer's public functions (core::ScenarioBuilder::build,
// Scenario::validate, SweepRunner::run_one, run_scenario, scenario_key,
// ResultCache::lookup/store, encode_result/decode_result, to_json_text), and
// around the benchmark's own set-up, rounds and output checks (`bench.*`).
// A span's layer is its name up to the first '.', so "cache.lookup" is
// charged to `cache`.
//
// Spans live in memory and are written out once, at the end, as Chrome
// trace_event JSON (chrome://tracing, Perfetto) plus a per-layer self-time
// table. A disabled tracer records nothing and reads no clock, so the
// untraced run pays one branch per span site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace iotbench {

struct SpanRecord {
  std::string_view name;  // static string: a span-site literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 ⇒ root
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Spans with this name, in recording order.
  [[nodiscard]] std::vector<const SpanRecord*> named(std::string_view name) const;
  /// Median duration (ns) of the spans with this name; 0 when there are none.
  [[nodiscard]] double median_ns(std::string_view name) const;

  /// Self time per layer: each span's duration minus the part covered by
  /// its direct children, summed by layer (ns).
  [[nodiscard]] std::map<std::string, double> self_ns_by_layer() const;

  /// Chrome trace_event JSON of every span ("X" complete events, µs).
  [[nodiscard]] std::string chrome_json() const;
  /// Plain-text table: layer, self ms, share of traced time, span count.
  [[nodiscard]] std::string layer_table() const;

 private:
  friend class Span;
  std::uint32_t open(std::string_view name);
  void close(std::uint32_t index);

  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;  // indices into spans_ of open spans
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// RAII span: opened on construction, closed on destruction. `name` must
/// outlive the tracer (use string literals).
class Span {
 public:
  Span(Tracer& tracer, std::string_view name)
      : tracer_{tracer.enabled() ? &tracer : nullptr},
        index_{tracer_ != nullptr ? tracer_->open(name) : 0} {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

/// The layer a span name belongs to: the text before the first '.'.
[[nodiscard]] std::string_view layer_of(std::string_view span_name);

}  // namespace iotbench
