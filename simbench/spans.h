#pragma once
// In-memory span recorder for the traced benchmark run. The benchmark
// wraps each of its own calls into a layer of the simulator in a span
// (name, start, end, parent, run id); nothing inside the library is
// instrumented. Spans stay in memory until the run ends, when they are
// written out as JSON and folded into per-layer total and self times.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace simbench {

struct Span {
  std::uint32_t name = 0;   ///< index into SpanRecorder::names()
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = top level
  std::uint32_t run = 0;     ///< iteration the span belongs to
};

/// Per-layer fold of a span set: wall time inside spans of that name,
/// the part of it not covered by child spans, and the span count.
struct LayerTime {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
};

class SpanRecorder {
 public:
  /// A disabled recorder records nothing; open() returns -1.
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  void set_run(std::uint32_t run) { run_ = run; }

  /// Opens a span nested in the innermost open one. Returns its index.
  int open(std::string_view name);
  /// Closes the span `index` (must be the innermost open span).
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  /// Adds a finished span directly (hand-built trees in the self-test).
  int add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint32_t run);

  /// {"names": [...], "spans": [[name, start_ns, end_ns, parent, run], ...]}
  std::string json() const;

 private:
  std::uint32_t intern(std::string_view name);
  std::int64_t now_ns() const;

  bool enabled_;
  std::uint32_t run_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction. Inert with a
/// null or disabled recorder.
class Scope {
 public:
  Scope(SpanRecorder* rec, std::string_view name)
      : rec_(rec), index_(rec != nullptr ? rec->open(name) : -1) {}
  ~Scope() {
    if (index_ >= 0) rec_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

/// Self time of every span: its duration minus the length of the union
/// of its direct children's intervals, clipped to the span.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Folds the spans of one run (run == `run`) by name.
std::map<std::string, LayerTime> fold_layers(const SpanRecorder& rec, std::uint32_t run);

}  // namespace simbench
