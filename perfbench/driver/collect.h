// Reading a finished repetition from the outside: registry totals through
// trace::Registry, the network and CPU accessors, and the per-host
// MigrationRecords. Counts are deltas over the timed run, so set-up traffic
// and warm-up never leak into what the workload is charged with.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kern/cluster.h"
#include "report.h"
#include "trace/trace.h"
#include "workload.h"

namespace perfbench {

struct Snapshot {
  double sim_s = 0.0;
  std::map<std::string, std::int64_t> counters;  // cluster totals
  std::map<std::string, sprite::trace::Registry::HistSnapshot> hists;
  std::int64_t net_bytes = 0;
  std::int64_t net_messages = 0;
  double net_busy_s = 0.0;
  double user_cpu_s = 0.0;        // every host's user-class CPU
  double server_kernel_s = 0.0;   // file server 0's kernel-class CPU
};

Snapshot snapshot(sprite::kern::Cluster& cluster);

struct OpCounts {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string breakdown;  // one line: jobs, migrations, evictions
};

// The simulated end-to-end metrics (into `e2e`) and the simulated
// per-layer counts (into `layers`), from the run between `a` and `b`.
OpCounts add_simulated(sprite::kern::Cluster& cluster, const Snapshot& a,
                       const Snapshot& b, const Outcome& out, Report& e2e,
                       Report& layers);

}  // namespace perfbench
