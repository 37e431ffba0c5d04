// Per-transfer tracing helpers over TraceLog.
//
// TraceScope is an RAII span: opened at construction (at the log's current
// simulated time), closed by End() or the destructor. It is safe to keep in
// a coroutine frame across co_awaits — the span simply covers the elapsed
// simulated time, concurrent scopes on one track are fine in the trace-event
// model.
//
// ScopedTraceContext sets the log's transfer context ("out#3[copy]") for a
// *synchronous* extent only: deeper layers (the VM fault handler) prefix
// their instants with it, attributing page-ins, TCOW copies and zero-fills
// to the transfer that triggered them. Never hold one across a co_await —
// another task's events would inherit the context.
#ifndef GENIE_SRC_OBS_TRACE_SCOPE_H_
#define GENIE_SRC_OBS_TRACE_SCOPE_H_

#include <string>
#include <string_view>

#include "src/sim/trace.h"

namespace genie {

class TraceScope {
 public:
  // Opens the span `name` + `name_suffix` ("out#3[copy]" + ".prepare") on
  // `track`. A null `log` makes the scope a no-op that builds no strings: the
  // parts are joined only when a log is attached. A nonzero `flow` stamps
  // the span with that causal flow id (see TraceLog::Event::flow).
  TraceScope(TraceLog* log, std::string_view track, std::string_view name,
             std::string_view name_suffix, std::uint64_t flow = 0,
             std::string_view category = "xfer");
  ~TraceScope() { End(); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  // Emits the span [construction, now). Idempotent.
  void End();

 private:
  TraceLog* log_;
  std::string track_;
  std::string name_;
  std::string category_;
  std::uint64_t flow_ = 0;
  SimTime start_ = 0;
  bool ended_ = false;
};

class ScopedTraceContext {
 public:
  ScopedTraceContext(TraceLog* log, const std::string& context);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceLog* log_;
  std::string previous_;
};

}  // namespace genie

#endif  // GENIE_SRC_OBS_TRACE_SCOPE_H_
