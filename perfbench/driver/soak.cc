// soak: the diurnal session generator through wl::SoakHarness — the
// production shape. Open loop in simulated time: users arrive, type, submit
// batch jobs and pmake storms on their own schedule while workstations crash
// and reboot and trios are partitioned off. The horizon starts Monday 00:00
// and runs past the 09:00 morning ramp. Host time goes to per-host periodic
// work (cpu_slice, recov_probe, cpu_load_sample, ls_update); migrations are
// a few hundred exec-time placements, so transfer-engine changes should not
// move it.
//
// Autocheckpoint is off: at this crash cadence a capture can still be
// waiting on its chain's head slots when the crash of its process's home
// kills the process, and the capture then reads the dead process's address
// space (a null pointer, CkptManager::build_meta) and the simulator
// crashes; seed 20 does so an hour into the horizon.
#include "workload.h"

#include "workload/soak.h"

namespace perfbench {
namespace {

using sprite::sim::Time;

class Soak : public Workload {
 public:
  explicit Soak(std::uint64_t seed) : seed_(seed) {}

  SetupTimes setup(SpanLog& spans) override {
    // 16 workstations at 3 users each. At 24 (the shape bench_engine_profile
    // uses) host time swung twice as much with the machine's memory
    // contention: interleaved on the same machine, 24 workstations spread
    // 0.17 (interquartile range over median) across runs and 16 spread 0.07.
    sprite::wl::SoakOptions o;
    o.workstations = 16;
    o.seed = seed_;
    o.sessions.users = 48;
    o.sessions.horizon = kHorizon;
    // Compressed fault cadence so a half-day horizon still sees rotating
    // crashes and partitions. A crash clears its host's process and
    // home-record tables, which recov_probe scans every tick; when the
    // rotation reaches each host only once or twice in the horizon, those
    // tables grow with the seed's job count and so does the run's host time.
    o.crash_period = Time::minutes(10);
    o.partition_period = Time::minutes(30);
    o.autocheckpoint = false;
    // Owners must get their workstation back within seconds. (No rule on
    // fs.cache.dirty_lost: a crashed workstation loses the delayed writes
    // still in its cache, which at this crash cadence is expected.)
    o.slo_rules.push_back({.name = "evict_p99",
                           .metric = "ls.eviction.latency_ms",
                           .agg = sprite::trace::SloRule::Agg::kWindowP99,
                           .cmp = sprite::trace::SloRule::Cmp::kLt,
                           .threshold = 5000.0,
                           .window = Time::hours(1)});
    SetupTimes t;
    Phase p(spans, "setup.cluster");
    harness_ = std::make_unique<sprite::wl::SoakHarness>(o);
    t.cluster_s = p.finish();
    return t;
  }

  sprite::kern::Cluster& cluster() override { return harness_->cluster(); }

  void run(SpanLog& spans, DriftProbe& drift) override {
    sprite::sim::Simulator& sim = harness_->cluster().sim();
    const Time t0 = sim.now();
    drift.mark(t0.s(), sim.profiler().events());
    // Drift marks at the tenths of the horizon. They fire in every run,
    // traced or not, so both runs execute the identical event sequence.
    for (const double f : {0.1, 0.9, 1.0})
      sim.at(t0 + kHorizon * f, "perfbench_mark", [&drift, &sim] {
               drift.mark(sim.now().s(), sim.profiler().events());
             });
    Phase p(spans, "run.harness");
    report_ = harness_->run();
  }

  void finish(Outcome& out) override {
    const sprite::wl::SoakReport& r = report_;
    out.end_s = harness_->cluster().sim().now().s();
    out.evict_from_registry = true;
    out.jobs = r.workload.jobs_submitted;
    out.jobs_failed = r.workload.jobs_crashed + r.workload.jobs_dropped;
    if (!r.audit.ok()) {
      out.problems.push_back("incarnation audit: " +
                             std::to_string(r.audit.lost) + " lost, " +
                             std::to_string(r.audit.duplicated) +
                             " duplicated");
      for (const std::string& p : r.audit.problems)
        out.problems.push_back("  " + p);
    }
    for (const std::string& p : r.slo_problems)
      out.problems.push_back("slo: " + p);
    if (r.workload.sessions_begun < 100)
      out.problems.push_back("only " + std::to_string(r.workload.sessions_begun) +
                             " sessions over the horizon");
    const std::int64_t terminal = r.workload.jobs_finished +
                                  r.workload.jobs_crashed +
                                  r.workload.jobs_dropped;
    if (terminal != r.workload.jobs_submitted)
      out.problems.push_back("jobs submitted " +
                             std::to_string(r.workload.jobs_submitted) +
                             " != terminal " + std::to_string(terminal));
  }

 private:
  static constexpr Time kHorizon = Time::hours(10);

  std::uint64_t seed_;
  std::unique_ptr<sprite::wl::SoakHarness> harness_;
  sprite::wl::SoakReport report_;
};

}  // namespace

std::unique_ptr<Workload> make_soak(std::uint64_t seed) {
  return std::make_unique<Soak>(seed);
}

}  // namespace perfbench
