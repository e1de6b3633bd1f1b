#include "spans.hpp"

#include <algorithm>
#include <iomanip>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

std::size_t SpanRecorder::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  if (stack_.empty() || static_cast<std::size_t>(stack_.back()) != index)
    throw std::logic_error("perfbench: spans must close innermost-first");
  spans_[index].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  return self;
}

std::vector<LayerTime> SpanRecorder::layer_times() const {
  const std::vector<std::int64_t> self = self_times(spans_);
  std::vector<LayerTime> out;
  std::unordered_map<std::string_view, std::size_t> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = slot.try_emplace(s.name, out.size());
    if (fresh) out.push_back(LayerTime{s.name, 0, 0, 0});
    LayerTime& lt = out[it->second];
    ++lt.calls;
    lt.total_ns += s.end_ns - s.start_ns;
    lt.self_ns += self[i];
  }
  return out;
}

const LayerTime& find_layer(const std::vector<LayerTime>& layers,
                            std::string_view name) {
  static const LayerTime kNone{};
  const auto it = std::find_if(layers.begin(), layers.end(),
                               [&](const LayerTime& l) { return l.name == name; });
  return it == layers.end() ? kNone : *it;
}

void SpanRecorder::write_chrome_trace(std::ostream& os,
                                      std::string_view process) const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"" << process << "\"}}";
  os << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"wall\",\"ph\":\"X\""
       << ",\"pid\":1,\"tid\":0"
       << ",\"ts\":" << static_cast<double>(s.start_ns - t0) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
