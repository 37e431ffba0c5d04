#include "perfbench/spans.h"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder(std::size_t capacity)
    : capacity_(capacity), origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(capacity);
}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int32_t SpanRecorder::Begin(const char* name, std::uint64_t id, std::int32_t parent) {
  if (full()) {
    return -1;  // Never reallocate mid-run; the caller sized the capacity.
  }
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_us = NowUs();
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(std::int32_t index) {
  if (index >= 0) {
    spans_[static_cast<std::size_t>(index)].end_us = NowUs();
  }
}

std::map<std::string, SpanRecorder::SelfTime> SpanRecorder::SelfTimes() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& st = out[spans_[i].name];
    st.total_us += spans_[i].end_us - spans_[i].start_us - child_us[i];
    ++st.count;
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"id\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.start_us, s.end_us - s.start_us, i, s.parent,
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
