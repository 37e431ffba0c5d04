// Spans recorded by the traced run, in the benchmark's own code around each
// call it makes into a library layer. Spans live in memory (the capacity is
// reserved up front, so recording allocates nothing) and are written once,
// as Chrome/Perfetto trace JSON, when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;  // string literal
    std::uint64_t id = 0;        // transfer or batch id
    std::int32_t parent = -1;    // index of the enclosing span, -1 at the root
    double start_us = 0.0;
    double end_us = 0.0;
  };

  struct SelfTime {
    double total_us = 0.0;
    std::uint64_t count = 0;
  };

  explicit SpanRecorder(std::size_t capacity);

  // Opens a span and returns its index; `parent` is an index from Begin.
  std::int32_t Begin(const char* name, std::uint64_t id, std::int32_t parent = -1);
  void End(std::int32_t index);

  std::size_t size() const { return spans_.size(); }
  bool full() const { return spans_.size() >= capacity_; }

  // Per span name: total self time (duration minus the part covered by its
  // child spans) and the number of spans.
  std::map<std::string, SelfTime> SelfTimes() const;

  // Writes {"traceEvents": [...]} with one complete ("X") event per span;
  // args carry the span index, its parent's index and the transfer/batch id.
  bool WriteJson(const std::string& path) const;

 private:
  double NowUs() const;

  std::size_t capacity_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction; does nothing
// when the recorder is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint64_t id, std::int32_t parent = -1)
      : rec_(rec), index_(rec != nullptr ? rec->Begin(name, id, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t index() const { return index_; }

 private:
  SpanRecorder* rec_;
  std::int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
