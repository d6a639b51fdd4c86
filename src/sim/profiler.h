// Engine self-profiler: where does the simulator itself burn wall-clock?
//
// Every event carries a static label naming its type ("net_deliver",
// "cpu_slice", "rpc_timeout", ...; unlabeled sites fall into "other"). The
// profiler attributes the event loop's work to those labels at two levels:
//
//   * Counting (always on): one pointer-keyed table entry per label (labels
//     are string literals) holds the label's stats and its
//     `sim.engine.fired.<label>` registry counter, so an event costs one
//     small hash lookup — noise next to the queue pop and closure dispatch
//     it measures. The counters (plus `sim.engine.event.fired`) are
//     deterministic per seed, so the bench gate pins the event mix exactly.
//
//   * Timing (opt-in, enable_timing): steady_clock around each handler,
//     accumulated per label with a fixed log-scale cost histogram for
//     p50/p99. Wall-clock is NOT deterministic, so timing data lives here,
//     never in the registry — except the single `sim.engine.events_per_sec`
//     gauge bench_engine_profile publishes at exit, which the gate diffs
//     with a wide one-sided tolerance band (see scripts/bench_gate.py).
//
// The top-N hottest-event-type table (report()) is appended to every
// flight-recorder dump via Registry::set_dump_hook, so a starved or
// CHECK-failed run shows what the engine was spending its time on.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/trace.h"

namespace sprite::sim {

class EngineProfiler {
 public:
  // Log-scale per-event handler-cost bounds in nanoseconds.
  static constexpr std::array<double, 12> kCostBoundsNs = {
      100,  250,  500,   1e3,   2.5e3, 5e3,
      1e4,  2.5e4, 5e4,  1e5,   1e6,   1e7};

  struct LabelStats {
    const char* label = "";
    std::int64_t fired = 0;
    double total_ns = 0.0;
    std::array<std::int64_t, kCostBoundsNs.size() + 1> cost_buckets{};
  };

  // Fired counts are mirrored into `registry`, which must outlive this.
  explicit EngineProfiler(trace::Registry& registry);

  // One event fired. `ns` < 0 means timing was off (count only).
  void record(const char* label, double ns);

  bool timing() const { return timing_; }
  void set_timing(bool on) { timing_ = on; }

  // Wall-clock bracket around the run under measurement; events_per_sec()
  // uses it as the denominator. end_run() is idempotent per begin_run().
  void begin_run();
  void end_run();

  std::int64_t events() const { return events_; }
  double wall_s() const;
  double events_per_sec() const;

  // Per-label stats, hottest first (by total_ns when timing, else by fired
  // count; ties broken by label so the order is reproducible).
  std::vector<LabelStats> top(std::size_t n) const;
  static double percentile_ns(const LabelStats& s, double q);

  // Human-readable top-N table for reports and flight dumps.
  std::string report(std::size_t n = 10) const;

  // Clears the profiler's own tallies; the registry counters keep counting.
  void reset();

 private:
  struct Entry {
    LabelStats stats;
    trace::Counter* counter = nullptr;  // sim.engine.fired.<label>
  };

  trace::Registry& registry_;
  trace::Counter* c_event_fired_;
  bool timing_ = false;
  std::int64_t events_ = 0;
  double total_ns_ = 0.0;
  double run_start_ns_ = 0.0;
  double run_ns_ = 0.0;
  bool running_ = false;
  // Keyed by label pointer: schedule sites pass string literals, so equal
  // labels share an address per site; the few duplicate-literal addresses a
  // linker might not fold are merged by name in top(), and share one
  // counter because the registry keys counters by name.
  std::unordered_map<const void*, Entry> labels_;
};

}  // namespace sprite::sim
