// The three benchmark workloads behind one interface.
//
// A repetition is: make_workload(name, seed) -> setup() (timed as setup_s)
// -> run() (timed as wall_s) -> finish() (output checks and the
// workload-specific numbers). Everything a workload does goes through the
// simulator's public API; nothing under src/ knows it is being measured.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kern/cluster.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

// Set-up phases, host seconds.
struct SetupTimes {
  double cluster_s = 0.0;  // cluster + facility construction
  double install_s = 0.0;  // program and file install
  double warmup_s = 0.0;   // until workstations pass idle detection
  double spawn_s = 0.0;    // guest spawn
  double total() const { return cluster_s + install_s + warmup_s + spawn_s; }
};

// What finish() reports besides the cluster-wide collection.
struct Outcome {
  // Owner input -> workstation holds no foreign process, when the driver
  // observed each eviction itself (evict). Soak reads the registry's
  // eviction histogram instead; storm has none.
  std::vector<double> evict_ms;
  bool evict_from_registry = false;
  // Simulated time the workload's last job, build or eviction completed.
  double end_s = 0.0;
  // Jobs (batch jobs or compiles) the workload submitted, and how many of
  // them crashed, were dropped or failed.
  std::int64_t jobs = 0;
  std::int64_t jobs_failed = 0;
  // Evictions that left a foreign process behind.
  std::int64_t evictions_unclean = 0;
  // Output-check failures, one line each. Empty means correct.
  std::vector<std::string> problems;
  // pmake builds (storm).
  std::int64_t pmake_jobs = 0, pmake_remote = 0, pmake_failed = 0;
  std::vector<double> pmake_build_s;
  // Host ms from a driver migrate call to its completion callback.
  std::vector<double> migrate_call_host_ms;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual SetupTimes setup(SpanLog& spans) = 0;
  virtual sprite::kern::Cluster& cluster() = 0;
  // Runs the workload's fixed simulated work to completion. `drift` gets
  // marks along the simulated timeline.
  virtual void run(SpanLog& spans, DriftProbe& drift) = 0;
  virtual void finish(Outcome& out) = 0;
};

const std::vector<std::string>& workload_names();

// The seeds one run of the workload covers: `seed` itself, then seeds
// derived from it. Soak's host time and simulated aggregates swing with a
// seed's few heavy-tailed jobs and pmake storms, so a soak run covers four
// seeds and reports their mean; storm and evict, which vary little from seed
// to seed, cover `seed` alone.
std::vector<std::uint64_t> run_seeds(const std::string& name,
                                     std::uint64_t seed);

// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

std::unique_ptr<Workload> make_soak(std::uint64_t seed);
std::unique_ptr<Workload> make_storm(std::uint64_t seed);
std::unique_ptr<Workload> make_evict(std::uint64_t seed);

}  // namespace perfbench
