#include "spans.h"

#include <algorithm>
#include <stdexcept>

namespace simbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

int SpanRecorder::open(std::string_view name) {
  if (!enabled_) return -1;
  Span s;
  s.name = intern(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

int SpanRecorder::add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
                      int parent, std::uint32_t run) {
  Span s;
  s.name = intern(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.run = run;
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

std::string SpanRecorder::json() const {
  std::string out = "{\"names\": [";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + names_[i] + "\"";
  }
  out += "], \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "\n[" + std::to_string(s.name) + ", " + std::to_string(s.start_ns) + ", " +
           std::to_string(s.end_ns) + ", " + std::to_string(s.parent) + ", " +
           std::to_string(s.run) + "]";
  }
  out += "]}\n";
  return out;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, LayerTime> fold_layers(const SpanRecorder& rec, std::uint32_t run) {
  const std::vector<Span>& spans = rec.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].run != run) continue;
    LayerTime& lt = out[rec.names()[spans[i].name]];
    lt.total_s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    lt.self_s += static_cast<double>(self[i]) * 1e-9;
    ++lt.count;
  }
  return out;
}

}  // namespace simbench
