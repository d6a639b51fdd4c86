// The driver's own host-time spans around each call it makes into the
// simulator's public API (construction, install, warm-up, spawn, migrate,
// owner return -> empty workstation, Pmake::run, harness run).
//
// Spans are kept in memory and written once, at exit, as Chrome
// trace_event JSON. Timing always happens (set-up time is an end-to-end
// metric); storing a span happens only when the log is enabled, which is
// the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using HostClock = std::chrono::steady_clock;

inline double seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  // from the log's epoch
    std::int64_t end_ns = 0;
    int parent = -1;            // index of the enclosing span, -1 for roots
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span; returns its index (-1 when disabled).
  int begin(std::string name, int parent = -1);
  // Closes span `id` (no-op for -1).
  void end(int id);

  // Chrome trace_event JSON ("X" complete events, one track).
  std::string chrome_json() const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  HostClock::time_point epoch_ = HostClock::now();
  std::vector<Span> spans_;
};

// Times one phase: always measures, records a span when the log is enabled.
class Phase {
 public:
  Phase(SpanLog& log, std::string name, int parent = -1)
      : log_(log), id_(log.begin(std::move(name), parent)) {}
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  ~Phase() { finish(); }

  int id() const { return id_; }
  // Ends the phase (idempotent) and returns its host seconds.
  double finish();

 private:
  SpanLog& log_;
  int id_;
  HostClock::time_point t0_ = HostClock::now();
  double seconds_ = -1.0;
};

// Host-ns-per-event at points along the simulated timeline, for sim.drift:
// how much dearer an event is in the last tenth of simulated time than in
// the first.
class DriftProbe {
 public:
  void mark(double sim_s, std::int64_t events);
  // (ns/event over the last tenth) / (ns/event over the first tenth) of the
  // marked span, each tenth widened to the nearest marks; 0 with fewer than
  // three marks or no events in a tenth.
  double drift() const;

 private:
  struct Mark {
    double sim_s;
    std::int64_t host_ns;
    std::int64_t events;
  };
  std::vector<Mark> marks_;
};

}  // namespace perfbench
