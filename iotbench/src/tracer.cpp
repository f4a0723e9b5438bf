#include "tracer.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "stats.h"

namespace iotbench {

std::string_view layer_of(std::string_view span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::uint32_t Tracer::open(std::string_view name) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  SpanRecord rec;
  rec.name = name;
  rec.id = index + 1;
  rec.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
  rec.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - epoch_)
                     .count();
  spans_.push_back(rec);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::uint32_t index) {
  spans_[index].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - epoch_)
                             .count();
  // Spans are RAII-scoped, so the one closing is always the innermost.
  stack_.pop_back();
}

std::vector<const SpanRecord*> Tracer::named(std::string_view name) const {
  std::vector<const SpanRecord*> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

double Tracer::median_ns(std::string_view name) const {
  std::vector<double> d;
  for (const auto* s : named(name)) d.push_back(static_cast<double>(s->end_ns - s->start_ns));
  return median(std::move(d));
}

std::map<std::string, double> Tracer::self_ns_by_layer() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    self[std::string{layer_of(s.name)}] += static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
  }
  return self;
}

std::string Tracer::chrome_json() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (i > 0) out << ',';
    out << "\n{\"name\":\"" << s.name << "\",\"cat\":\"" << layer_of(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,";
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,", static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << buf << "\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

std::string Tracer::layer_table() const {
  const auto self = self_ns_by_layer();
  double total = 0.0;
  for (const auto& [layer, ns] : self) total += ns;
  std::map<std::string, std::size_t> counts;
  for (const auto& s : spans_) ++counts[std::string{layer_of(s.name)}];
  std::ostringstream out;
  char buf[128];
  std::snprintf(buf, sizeof buf, "%-8s %12s %8s %8s\n", "layer", "self_ms", "share", "spans");
  out << buf;
  for (const auto& [layer, ns] : self) {
    std::snprintf(buf, sizeof buf, "%-8s %12.3f %7.2f%% %8zu\n", layer.c_str(), ns / 1e6,
                  total > 0.0 ? 100.0 * ns / total : 0.0, counts[layer]);
    out << buf;
  }
  return out.str();
}

}  // namespace iotbench
