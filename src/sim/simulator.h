// The Simulator: simulated clock + event loop + root RNG + trace registry.
//
// All kernel mechanisms in this repository are event-driven objects hanging
// off one Simulator. A run is deterministic given the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/event_queue.h"
#include "sim/profiler.h"
#include "sim/time.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace sprite::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` at absolute simulated time `t` (>= now). `label` is a
  // static string literal naming the event type for the self-profiler and
  // the `sim.engine.fired.<label>` counters (lowercase [a-z0-9_]); the
  // unlabeled overloads fall into EventQueue::kDefaultLabel ("other").
  EventHandle at(Time t, const char* label, std::function<void()> fn);
  EventHandle at(Time t, std::function<void()> fn) {
    return at(t, EventQueue::kDefaultLabel, std::move(fn));
  }

  // Schedules `fn` after a delay (>= 0).
  EventHandle after(Time delay, const char* label, std::function<void()> fn);
  EventHandle after(Time delay, std::function<void()> fn) {
    return after(delay, EventQueue::kDefaultLabel, std::move(fn));
  }

  // Recurring background activity (load sampling, cache writeback, user
  // activity). Re-arms itself after each firing until `until` (defaults to
  // the simulator horizon at each re-arm, so extending the horizon extends
  // recurring activity).
  void every(Time period, const char* label, std::function<void()> fn,
             Time until = Time::max());
  void every(Time period, std::function<void()> fn, Time until = Time::max()) {
    every(period, EventQueue::kDefaultLabel, std::move(fn), until);
  }

  // The horizon bounds recurring events so the event queue drains once real
  // work completes. Experiments set it once, generously.
  void set_horizon(Time t) { horizon_ = t; }
  Time horizon() const { return horizon_; }

  // Fires the next event if any; returns false when the queue is empty.
  bool step();

  // Runs every event scheduled at or before `t`, then advances the clock
  // to `t` even if the queue drained earlier.
  void run_until(Time t);

  // Runs until `done` returns true or the queue empties. Returns the value
  // of `done()` at exit (false means the simulation starved first).
  bool run_while_pending(const std::function<bool()>& done);

  // Drains the queue completely (recurring events stop at the horizon).
  void run();

  // Independent RNG stream for a component.
  util::Rng fork_rng() { return rng_.fork(); }
  util::Rng& rng() { return rng_; }

  // Unified metrics + tracing registry for everything attached to this
  // simulator. Metrics are always collected; event tracing is off until
  // trace().set_tracing(true).
  trace::Registry& trace() { return *trace_; }
  const trace::Registry& trace() const { return *trace_; }

  // Engine self-profiler. Per-label fired counts are always collected (as
  // deterministic `sim.engine.fired.<label>` registry counters); call
  // profiler().set_timing(true) before a run to also attribute wall-clock
  // per event type. The top-N table rides along in every flight dump.
  EngineProfiler& profiler() { return profiler_; }
  const EngineProfiler& profiler() const { return profiler_; }

 private:
  Time now_;
  Time horizon_ = Time::hours(24);
  EventQueue queue_;
  util::Rng rng_;
  std::unique_ptr<trace::Registry> trace_;
  EngineProfiler profiler_;
  trace::Gauge* g_queue_peak_;
  std::size_t queue_peak_ = 0;
};

}  // namespace sprite::sim
