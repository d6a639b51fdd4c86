#include "collect.h"

#include <array>

#include "migration/manager.h"
#include "sim/cpu.h"
#include "trace/series.h"

namespace perfbench {

using sprite::kern::Cluster;
using sprite::mig::MigrationRecord;
using sprite::mig::VmStrategy;
using sprite::sim::HostId;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// Registry counters the collection reads, summed across hosts.
const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = {
      "ckpt.capture.completed", "ckpt.capture.failed",
      "ckpt.page.captured", "ckpt.restart.completed",
      "fs.client.block.hit", "fs.client.block.miss",
      "fs.server.disk.accessed", "fs.server.lookup.components",
      "fs.server.open.served", "fs.server.read.bytes",
      "fs.server.write.bytes", "ls.eviction.triggered",
      "ls.select.bad_grant", "ls.select.empty_grant",
      "ls.select.host_granted", "ls.select.requested",
      "mig.out.completed", "mig.out.failed",
      "proc.cpu.foreign_us", "proc.syscall.entered",
      "proc.syscall.forwarded_home", "recov.echo.sent",
      "recov.peer.down", "recov.peer.suspect",
      "recov.suspect.false", "rpc.call.retransmitted",
      "rpc.call.started", "rpc.call.timedout",
      "sim.engine.fired.cpu_slice", "vm.page.faulted",
      "vm.page.flushed", "vm.page.paged_in",
      "vm.page.remote_pulled", "vm.page.zero_filled",
      "workload.event.applied", "workload.job.crashed",
      "workload.job.dropped", "workload.job.finished",
      "workload.job.submitted", "xfer.bytes.sent",
      "xfer.page.deduped", "xfer.page.pushed",
      "xfer.page.resent", "xfer.page.sent",
      "xfer.round.completed",
  };
  return names;
}

const std::vector<std::string>& histogram_names() {
  static const std::vector<std::string> names = {
      "ckpt.capture.total_ms", "ls.eviction.latency_ms", "ls.select.grant_ms"};
  return names;
}

std::int64_t delta(const Snapshot& a, const Snapshot& b,
                   const std::string& name) {
  return b.counters.at(name) - a.counters.at(name);
}

// Successful migrations started at or after `since_s` (simulated).
std::vector<MigrationRecord> migrations_since(Cluster& cluster,
                                              double since_s) {
  std::vector<MigrationRecord> out;
  for (std::size_t h = 0; h < cluster.num_hosts(); ++h)
    for (const MigrationRecord& r :
         cluster.host(static_cast<HostId>(h)).mig().records())
      if (r.started.s() >= since_s) out.push_back(r);
  return out;
}

// Percentile over a registry histogram's run-phase delta, with its count.
Metric histogram_percentile(const std::string& name, const std::string& unit,
                            const Snapshot& a, const Snapshot& b,
                            const std::string& metric, double q,
                            bool end_to_end) {
  const auto& before = a.hists.at(metric);
  const auto& after = b.hists.at(metric);
  std::vector<std::int64_t> counts = after.counts;
  for (std::size_t i = 0; i < counts.size() && i < before.counts.size(); ++i)
    counts[i] -= before.counts[i];
  const std::int64_t n = after.count - before.count;
  const double value =
      sprite::trace::percentile_from_buckets(after.bounds, counts, n, q);
  return make_percentile(name, unit, Clock::kSim, value, n, q, end_to_end);
}

}  // namespace

Snapshot snapshot(Cluster& cluster) {
  Snapshot s;
  s.sim_s = cluster.sim().now().s();
  const sprite::trace::Registry& tr = cluster.sim().trace();
  for (const std::string& name : counter_names())
    s.counters[name] = tr.counter_total(name);
  for (const std::string& name : histogram_names())
    s.hists[name] = tr.histogram_total(name);
  s.net_bytes = cluster.net().bytes_sent();
  s.net_messages = cluster.net().messages_sent();
  s.net_busy_s = cluster.net().utilization() * s.sim_s;
  for (std::size_t h = 0; h < cluster.num_hosts(); ++h)
    s.user_cpu_s += cluster.host(static_cast<HostId>(h))
                        .cpu()
                        .busy_time(sprite::sim::JobClass::kUser)
                        .s();
  s.server_kernel_s =
      cluster.file_server(0).cpu().busy_time(sprite::sim::JobClass::kKernel).s();
  return s;
}

OpCounts add_simulated(Cluster& cluster, const Snapshot& a, const Snapshot& b,
                       const Outcome& out, Report& e2e, Report& layers) {
  const double span_s = b.sim_s - a.sim_s;
  const std::vector<MigrationRecord> recs = migrations_since(cluster, a.sim_s);

  // ---- End to end ----
  std::vector<double> total_ms, freeze_ms;
  for (const MigrationRecord& r : recs) {
    total_ms.push_back(r.total_time().ms());
    freeze_ms.push_back(r.freeze_time().ms());
  }
  e2e.add("makespan_s", "s", Clock::kSim, out.end_s - a.sim_s);
  for (const auto& [q, tag] : {std::pair{0.5, "p50"}, std::pair{0.99, "p99"}}) {
    e2e.add(percentile_metric(std::string("migrate_") + tag + "_ms", "ms",
                              Clock::kSim, total_ms, q, true));
    e2e.add(percentile_metric(std::string("downtime_") + tag + "_ms", "ms",
                              Clock::kSim, freeze_ms, q, true));
    e2e.add(out.evict_from_registry
                ? histogram_percentile(std::string("evict_") + tag + "_ms",
                                       "ms", a, b, "ls.eviction.latency_ms",
                                       q, true)
                : percentile_metric(std::string("evict_") + tag + "_ms", "ms",
                                    Clock::kSim, out.evict_ms, q, true));
  }
  const double foreign_s =
      static_cast<double>(delta(a, b, "proc.cpu.foreign_us")) / 1e6;
  const double user_s = b.user_cpu_s - a.user_cpu_s;
  e2e.add("util_recovered", "fraction", Clock::kSim,
          user_s > 0.0 ? foreign_s / user_s : 0.0);
  e2e.add("wire_mb", "MB", Clock::kSim,
          static_cast<double>(b.net_bytes - a.net_bytes) / kMiB);

  const std::int64_t evictions = delta(a, b, "ls.eviction.triggered");
  const std::int64_t mig_failed = delta(a, b, "mig.out.failed");
  const std::int64_t migrations = delta(a, b, "mig.out.completed") + mig_failed;
  OpCounts ops;
  ops.attempted = out.jobs + migrations + evictions;
  ops.failed = out.jobs_failed + mig_failed + out.evictions_unclean;
  ops.breakdown = "jobs " + std::to_string(out.jobs) + " (" +
                  std::to_string(out.jobs_failed) + " failed), migrations " +
                  std::to_string(migrations) + " (" +
                  std::to_string(mig_failed) + " failed), evictions " +
                  std::to_string(evictions) + " (" +
                  std::to_string(out.evictions_unclean) + " unclean)";
  e2e.add("ops", "count", Clock::kSim, static_cast<double>(ops.attempted));
  e2e.add("failed_ops", "count", Clock::kSim, static_cast<double>(ops.failed));

  // ---- Per layer: simulated counts ----
  const auto count = [&](const std::string& name, const std::string& counter) {
    layers.add(name, "count", Clock::kSim,
               static_cast<double>(delta(a, b, counter)));
  };
  const auto mb = [&](const std::string& name, const std::string& counter) {
    layers.add(name, "MB", Clock::kSim,
               static_cast<double>(delta(a, b, counter)) / kMiB);
  };

  count("cpu.slices", "sim.engine.fired.cpu_slice");
  layers.add("cpu.server_busy", "fraction", Clock::kSim,
             span_s > 0.0 ? (b.server_kernel_s - a.server_kernel_s) / span_s
                          : 0.0);
  count("proc.syscalls", "proc.syscall.entered");
  layers.add(ratio_metric("proc.forwarded_ratio",
                          delta(a, b, "proc.syscall.forwarded_home"),
                          delta(a, b, "proc.syscall.entered")));

  layers.add("net.messages", "count", Clock::kSim,
             static_cast<double>(b.net_messages - a.net_messages));
  layers.add("net.utilization", "fraction", Clock::kSim,
             span_s > 0.0 ? (b.net_busy_s - a.net_busy_s) / span_s : 0.0);

  count("rpc.calls", "rpc.call.started");
  count("rpc.retransmits", "rpc.call.retransmitted");
  count("rpc.timeouts", "rpc.call.timedout");

  count("recov.echoes", "recov.echo.sent");
  layers.add(ratio_metric("recov.false_suspect_ratio",
                          delta(a, b, "recov.suspect.false"),
                          delta(a, b, "recov.peer.suspect")));
  count("recov.downs", "recov.peer.down");

  const std::int64_t hits = delta(a, b, "fs.client.block.hit");
  layers.add(ratio_metric("fs.block_hit_ratio", hits,
                          hits + delta(a, b, "fs.client.block.miss")));
  count("fs.opens", "fs.server.open.served");
  count("fs.lookups", "fs.server.lookup.components");
  count("fs.disk_ops", "fs.server.disk.accessed");
  mb("fs.read_mb", "fs.server.read.bytes");
  mb("fs.write_mb", "fs.server.write.bytes");

  count("vm.faults", "vm.page.faulted");
  count("vm.paged_in", "vm.page.paged_in");
  count("vm.zero_filled", "vm.page.zero_filled");
  count("vm.remote_pulled", "vm.page.remote_pulled");
  count("vm.flushed", "vm.page.flushed");

  count("mig.completed", "mig.out.completed");
  count("mig.failed", "mig.out.failed");
  std::vector<double> init_ms, vm_ms, streams_ms, resume_ms;
  for (const MigrationRecord& r : recs) {
    init_ms.push_back((r.init_done_at - r.started).ms());
    vm_ms.push_back((r.vm_done_at - r.init_done_at).ms());
    streams_ms.push_back((r.streams_done_at - r.vm_done_at).ms());
    resume_ms.push_back((r.resumed_at - r.streams_done_at).ms());
  }
  layers.add(percentile_metric("mig.init_ms_p50", "ms", Clock::kSim, init_ms,
                               0.5, false));
  layers.add(percentile_metric("mig.vm_ms_p50", "ms", Clock::kSim, vm_ms, 0.5,
                               false));
  layers.add(percentile_metric("mig.streams_ms_p50", "ms", Clock::kSim,
                               streams_ms, 0.5, false));
  layers.add(percentile_metric("mig.resume_ms_p50", "ms", Clock::kSim,
                               resume_ms, 0.5, false));

  const std::int64_t sent = delta(a, b, "xfer.page.sent");
  const std::int64_t deduped = delta(a, b, "xfer.page.deduped");
  layers.add("xfer.pages_sent", "count", Clock::kSim,
             static_cast<double>(sent));
  layers.add(ratio_metric("xfer.resend_ratio",
                          delta(a, b, "xfer.page.resent"), sent));
  layers.add(ratio_metric("xfer.dedup_ratio", deduped, sent + deduped));
  mb("xfer.bytes_mb", "xfer.bytes.sent");
  count("xfer.rounds", "xfer.round.completed");
  count("xfer.pushed", "xfer.page.pushed");
  // Downtime of address-space moves (exec-time moves carry no address
  // space) per VM strategy of the source host.
  constexpr std::array<VmStrategy, 4> kStrategies = {
      VmStrategy::kSpriteFlush, VmStrategy::kIterPreCopy,
      VmStrategy::kPostCopy, VmStrategy::kContentAddr};
  for (const VmStrategy s : kStrategies) {
    std::vector<double> down;
    for (const MigrationRecord& r : recs)
      if (!r.exec_time && r.strategy == s) down.push_back(r.freeze_time().ms());
    layers.add(percentile_metric(
        std::string("xfer.downtime_p50_ms.") + sprite::mig::strategy_name(s),
        "ms", Clock::kSim, down, 0.5, false));
  }

  count("ckpt.captures", "ckpt.capture.completed");
  count("ckpt.failed", "ckpt.capture.failed");
  count("ckpt.pages", "ckpt.page.captured");
  layers.add(histogram_percentile("ckpt.capture_ms_p50", "ms", a, b,
                                  "ckpt.capture.total_ms", 0.5, false));
  count("ckpt.restarts", "ckpt.restart.completed");

  const std::int64_t requests = delta(a, b, "ls.select.requested");
  const std::int64_t empty = delta(a, b, "ls.select.empty_grant");
  count("ls.requests", "ls.select.requested");
  count("ls.granted", "ls.select.host_granted");
  layers.add(ratio_metric("ls.grant_ratio", requests - empty, requests));
  count("ls.empty_grants", "ls.select.empty_grant");
  count("ls.bad_grants", "ls.select.bad_grant");
  layers.add(histogram_percentile("ls.grant_ms_p50", "ms", a, b,
                                  "ls.select.grant_ms", 0.5, false));
  layers.add(histogram_percentile("ls.grant_ms_p99", "ms", a, b,
                                  "ls.select.grant_ms", 0.99, false));
  layers.add("ls.evictions", "count", Clock::kSim,
             static_cast<double>(evictions));

  count("wl.events", "workload.event.applied");
  count("wl.jobs_submitted", "workload.job.submitted");
  count("wl.jobs_finished", "workload.job.finished");
  count("wl.jobs_crashed", "workload.job.crashed");
  count("wl.jobs_dropped", "workload.job.dropped");

  layers.add("pmake.jobs", "count", Clock::kSim,
             static_cast<double>(out.pmake_jobs));
  layers.add("pmake.remote_jobs", "count", Clock::kSim,
             static_cast<double>(out.pmake_remote));
  layers.add("pmake.failed_jobs", "count", Clock::kSim,
             static_cast<double>(out.pmake_failed));
  layers.add(percentile_metric("pmake.build_s_p50", "s", Clock::kSim,
                               out.pmake_build_s, 0.5, false));
  return ops;
}

}  // namespace perfbench
