#include "src/obs/trace_scope.h"

#include <utility>

namespace genie {

TraceScope::TraceScope(TraceLog* log, std::string_view track, std::string_view name,
                       std::string_view name_suffix, std::uint64_t flow,
                       std::string_view category)
    : log_(log), flow_(flow) {
  if (log_ == nullptr) {
    ended_ = true;
    return;
  }
  track_ = track;
  name_.reserve(name.size() + name_suffix.size());
  name_.append(name).append(name_suffix);
  category_ = category;
  start_ = log_->Now();
}

void TraceScope::End() {
  if (ended_) {
    return;
  }
  ended_ = true;
  log_->Span(track_, name_, category_, start_, log_->Now(), flow_);
}

ScopedTraceContext::ScopedTraceContext(TraceLog* log, const std::string& context)
    : log_(log) {
  if (log_ != nullptr) {
    previous_ = log_->context();
    log_->set_context(context);
  }
}

ScopedTraceContext::~ScopedTraceContext() {
  if (log_ != nullptr) {
    log_->set_context(std::move(previous_));
  }
}

}  // namespace genie
