#include "sim/simulator.h"

#include <chrono>

#include "util/assert.h"
#include "util/log.h"

namespace sprite::sim {

Simulator::Simulator(std::uint64_t seed)
    : rng_(seed),
      trace_(std::make_unique<trace::Registry>([this] { return now_.us(); })),
      profiler_(*trace_) {
  util::set_log_time_source([this] { return now_.us(); });
  g_queue_peak_ = &trace_->gauge("sim.engine.queue.peak");
  // A starved or CHECK-failed run dumps the flight recorder; append what the
  // engine itself was doing (top-N hottest event types).
  trace_->set_dump_hook([this] { return profiler_.report(8); });
}

Simulator::~Simulator() { util::set_log_time_source(nullptr); }

EventHandle Simulator::at(Time t, const char* label,
                          std::function<void()> fn) {
  SPRITE_CHECK_MSG(t >= now_, "scheduling into the past");
  EventHandle h;
  // Causal context follows the work: an event scheduled while a traced
  // operation is ambient runs under that same context, so continuation
  // chains (RPC handling, network delivery, timer callbacks) inherit their
  // trace without any per-subsystem plumbing. Free when no trace is active.
  if (const trace::Context ctx = trace_->current(); ctx.valid()) {
    h = queue_.schedule(t, label, [this, ctx, fn = std::move(fn)] {
      trace::ScopedContext scope(*trace_, ctx);
      fn();
    });
  } else {
    h = queue_.schedule(t, label, std::move(fn));
  }
  if (queue_.size() > queue_peak_) {
    queue_peak_ = queue_.size();
    g_queue_peak_->set(static_cast<double>(queue_peak_));
  }
  return h;
}

EventHandle Simulator::after(Time delay, const char* label,
                             std::function<void()> fn) {
  SPRITE_CHECK_MSG(delay >= Time::zero(), "negative delay");
  return at(now_ + delay, label, std::move(fn));
}

void Simulator::every(Time period, const char* label, std::function<void()> fn,
                      Time until) {
  SPRITE_CHECK_MSG(period > Time::zero(), "non-positive period");
  const Time next = now_ + period;
  if (next > until || next > horizon_) return;
  at(next, label, [this, period, label, fn = std::move(fn), until]() mutable {
    fn();
    every(period, label, std::move(fn), until);
  });
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  SPRITE_CHECK_MSG(fired.at >= now_, "event queue time went backwards");
  now_ = fired.at;
  if (profiler_.timing()) {
    const auto t0 = std::chrono::steady_clock::now();
    fired.fn();
    const auto t1 = std::chrono::steady_clock::now();
    profiler_.record(
        fired.label,
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
  } else {
    fired.fn();
    profiler_.record(fired.label, -1.0);
  }
  return true;
}

void Simulator::run_until(Time t) {
  while (!queue_.empty() && queue_.next_time() <= t) step();
  if (now_ < t) now_ = t;
}

bool Simulator::run_while_pending(const std::function<bool()>& done) {
  while (!done()) {
    if (!step()) return false;
  }
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace sprite::sim
