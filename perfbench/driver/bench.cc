#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <vector>

#include "collect.h"
#include "layers.h"
#include "report.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

namespace {

using sprite::sim::EngineProfiler;

constexpr std::size_t kSetupsPerCpu = 7;

struct Rep {
  bool traced = false;
  std::size_t seed = 0;  // index into the run's seeds
  int cpu = -1;  // the CPU it was pinned to, -1 for none
  SetupTimes setup;
  double wall_s = 0.0;
  Report e2e;     // simulated end-to-end metrics
  Report layers;  // simulated per-layer counts
  OpCounts ops;
  std::vector<std::string> problems;
  std::uint64_t digest = 0;
  // Traced repetitions only.
  Report host_layers;
  std::vector<std::string> unmapped;
  double handler_s = 0.0;  // every layer bucket
  double dispatch_s = 0.0;
};

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

const EngineProfiler::LabelStats* label_stats(
    const std::vector<EngineProfiler::LabelStats>& all, std::string_view label) {
  for (const auto& s : all)
    if (label == s.label) return &s;
  return nullptr;
}

Metric handler_percentile(const std::vector<EngineProfiler::LabelStats>& all,
                          const char* label, std::string name, double q) {
  const EngineProfiler::LabelStats* s = label_stats(all, label);
  return make_percentile(std::move(name), "ns", Clock::kHost,
                         s ? EngineProfiler::percentile_ns(*s, q) : 0.0,
                         s ? s->fired : 0, q, false);
}

void add_host_layers(const EngineProfiler& prof, const DriftProbe& drift,
                     const Outcome& out, Rep& rep) {
  const LayerTimes lt = attribute(prof);
  rep.unmapped = lt.unmapped;
  rep.handler_s = lt.total_handler_s;
  rep.dispatch_s = rep.wall_s - lt.total_handler_s;
  Report& h = rep.host_layers;
  h.add("sim.events_per_s", "1/s", Clock::kHost,
        static_cast<double>(prof.events()) / rep.wall_s);
  h.add("sim.dispatch_s", "s", Clock::kHost, rep.dispatch_s);
  h.add("sim.other_s", "s", Clock::kHost, lt.handler_s.at("sim"));
  h.add("sim.drift", "ratio", Clock::kHost, drift.drift());
  for (const std::string& layer : layer_names())
    if (layer != "sim")
      h.add(layer + ".handler_s", "s", Clock::kHost, lt.handler_s.at(layer));
  const auto all = prof.top(std::numeric_limits<std::size_t>::max());
  h.add(handler_percentile(all, "cpu_slice", "cpu.slice_ns_p99", 0.99));
  h.add(handler_percentile(all, "recov_probe", "recov.probe_ns_p50", 0.5));
  h.add(handler_percentile(all, "recov_probe", "recov.probe_ns_p99", 0.99));
  h.add(percentile_metric("mig.call_host_ms_p50", "ms", Clock::kHost,
                          out.migrate_call_host_ms, 0.5, false));
}

// The CPUs this process may run on. The CPUs of a virtual machine do not
// run equally fast (one can run the same work half again as slowly as the
// others for minutes at a time), and a process left alone stays on
// whichever CPU the scheduler first picked, so the driver spreads its
// set-ups and repetitions over all of them in turn.
class CpuSet {
 public:
  CpuSet() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  CpuSet(const CpuSet&) = delete;
  CpuSet& operator=(const CpuSet&) = delete;
  ~CpuSet() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

  // 1 when the process cannot tell which CPUs it has.
  std::size_t size() const { return std::max<std::size_t>(cpus_.size(), 1); }

  // Moves the process to the i-th CPU (mod size()); returns its number, or
  // -1 when it stays wherever the scheduler runs it.
  int pin(std::size_t i) const {
    if (cpus_.empty()) return -1;
    const int cpu = cpus_[i % cpus_.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

// Set-up time, sampled on every CPU.
struct SetupSample {
  SetupTimes parts;      // each part: median on each CPU, mean over CPUs
  double total_s = 0.0;  // the whole set-up, the same way
  std::size_t setups = 0;  // timed ones
};

// Clusters are built back to back and not run, so what a repetition leaves
// in the caches does not disturb them: on each CPU, one untimed warm-up and
// kSetupsPerCpu timed set-ups.
SetupSample time_setups(const Args& args, const CpuSet& cpus) {
  const auto setup_once = [&args] {
    SpanLog quiet(false);
    return make_workload(args.workload, args.seed)->setup(quiet);
  };
  SetupSample out;
  const double share = 1.0 / static_cast<double>(cpus.size());
  for (std::size_t c = 0; c < cpus.size(); ++c) {
    cpus.pin(c);
    setup_once();
    std::vector<SetupTimes> times;
    for (std::size_t i = 0; i < kSetupsPerCpu; ++i) times.push_back(setup_once());
    out.setups += times.size();
    const auto part = [&times](double SetupTimes::*field) {
      std::vector<double> v;
      for (const SetupTimes& t : times) v.push_back(t.*field);
      return median(v);
    };
    out.parts.cluster_s += share * part(&SetupTimes::cluster_s);
    out.parts.install_s += share * part(&SetupTimes::install_s);
    out.parts.warmup_s += share * part(&SetupTimes::warmup_s);
    out.parts.spawn_s += share * part(&SetupTimes::spawn_s);
    std::vector<double> totals;
    for (const SetupTimes& t : times) totals.push_back(t.total());
    out.total_s += share * median(totals);
  }
  return out;
}

Rep run_rep(const std::string& workload, std::uint64_t seed, bool traced,
            SpanLog& spans) {
  Rep rep;
  rep.traced = traced;
  std::unique_ptr<Workload> w = make_workload(workload, seed);
  Phase whole(spans, traced ? "rep.traced" : "rep.untraced");
  rep.setup = w->setup(spans);

  sprite::kern::Cluster& cluster = w->cluster();
  EngineProfiler& prof = cluster.sim().profiler();
  prof.reset();
  prof.set_timing(traced);
  const Snapshot a = snapshot(cluster);
  DriftProbe drift;
  prof.begin_run();
  {
    Phase p(spans, "run");
    w->run(spans, drift);
    rep.wall_s = p.finish();
  }
  prof.end_run();

  Outcome out;
  w->finish(out);
  const Snapshot b = snapshot(cluster);
  rep.ops = add_simulated(cluster, a, b, out, rep.e2e, rep.layers);
  rep.layers.add("sim.events", "count", Clock::kSim,
                 static_cast<double>(prof.events()));
  rep.layers.add("sim.queue_peak", "count", Clock::kSim,
                 cluster.sim().trace().gauge_total("sim.engine.queue.peak"));
  rep.problems = out.problems;
  // Everything simulated: the whole registry plus the derived metrics.
  rep.digest = fnv1a(cluster.sim().trace().metrics_json());
  rep.digest = fnv1a(rep.e2e.text(), rep.digest);
  rep.digest = fnv1a(rep.layers.text(), rep.digest);
  if (traced) add_host_layers(prof, drift, out, rep);
  return rep;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string parse_args(int argc, const char* const* argv, Args* out) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return "missing value for " + flag;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      bool known = false;
      for (const std::string& n : workload_names()) known = known || n == v;
      if (!known) return "unknown workload '" + v + "'";
      out->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      if (v.empty() || v[0] == '-') return "bad --seed '" + v + "'";
      errno = 0;
      out->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || errno == ERANGE) return "bad --seed '" + v + "'";
      have_seed = true;
    } else if (flag == "--seconds") {
      const long s = std::strtol(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || s < 1 || s > 3600)
        return "bad --seconds '" + v + "'";
      out->seconds = static_cast<int>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return "bad --trace '" + v + "'";
      out->trace = v == "1";
      have_trace = true;
    } else if (flag == "--spans-out") {
      out->spans_out = v;
    } else {
      return "unknown flag " + flag;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return "usage: perfbench --workload <soak|storm|evict> --seed <n> "
           "--seconds <s> --trace <0|1> [--spans-out <file>]";
  return "";
}

int run_benchmark(const Args& args) {
  const std::vector<std::uint64_t> seeds = run_seeds(args.workload, args.seed);
  const std::size_t k = seeds.size();
  const CpuSet cpus;
  const SetupSample setup = time_setups(args, cpus);
  // Spans are recorded in traced repetitions only.
  SpanLog spans(false);
  const HostClock::time_point start = HostClock::now();
  std::vector<Rep> reps;
  std::size_t untraced_reps = 0, traced_reps = 0;
  // Repeat until the time budget is spent, with at least one untraced
  // repetition of every seed (and, in a traced run, one traced repetition).
  // Untraced and traced repetitions each take the seeds and the CPUs in
  // turn, so each seed's first repetition is an untraced one.
  while (true) {
    const HostClock::time_point t0 = HostClock::now();
    const bool traced = args.trace && reps.size() % 2 == 1;
    const std::size_t i = traced ? traced_reps++ : untraced_reps++;
    const int cpu = cpus.pin(i);
    spans.set_enabled(traced);
    reps.push_back(run_rep(args.workload, seeds[i % k], traced, spans));
    reps.back().seed = i % k;
    reps.back().cpu = cpu;
    const double last = seconds_since(t0);
    const bool enough =
        untraced_reps >= k && (!args.trace || traced_reps >= 1);
    if (enough && seconds_since(start) + last > args.seconds) break;
  }

  // Every repetition of a seed must match that seed's first one.
  std::vector<const Rep*> first(k, nullptr);
  std::vector<std::vector<double>> untraced_wall(k), traced_wall(k);
  std::vector<std::string> problems;
  for (const Rep& r : reps) {
    if (first[r.seed] == nullptr) {
      first[r.seed] = &r;
      for (const std::string& p : r.problems)
        problems.push_back(
            k > 1 ? "seed " + std::to_string(seeds[r.seed]) + ": " + p : p);
    }
    (r.traced ? traced_wall : untraced_wall)[r.seed].push_back(r.wall_s);
    if (r.digest != first[r.seed]->digest)
      problems.push_back(std::string("nondeterministic: ") +
                         (r.traced ? "traced" : "untraced") +
                         " repetition digest " + hex(r.digest) + " != " +
                         hex(first[r.seed]->digest));
  }

  // Host time: each seed's median, averaged over the seeds. Simulated
  // metrics, operations and the digest: every seed's, merged.
  double wall_s = 0.0;
  std::vector<const Report*> simulated;
  std::int64_t attempted = 0, failed = 0;
  std::uint64_t digest = first[0]->digest;
  for (std::size_t s = 0; s < k; ++s) {
    wall_s += median(untraced_wall[s]) / static_cast<double>(k);
    simulated.push_back(&first[s]->e2e);
    attempted += first[s]->ops.attempted;
    failed += first[s]->ops.failed;
    if (s > 0) digest = fnv1a(hex(first[s]->digest), digest);
  }
  Report e2e;
  e2e.add("setup_s", "s", Clock::kHost, setup.total_s);
  e2e.add("wall_s", "s", Clock::kHost, wall_s);
  e2e.add("peak_rss_mb", "MB", Clock::kHost, peak_rss_mb());
  const Report merged = merge_seeds(simulated);
  for (const Metric& m : merged.metrics()) e2e.add(m);

  std::printf("perfbench %s seed %llu: %zu repetitions (%zu traced) of %zu "
              "seeds, %zu set-ups on %zu CPUs\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              reps.size(), traced_reps, k, setup.setups, cpus.size());
  for (std::size_t i = 0; i < reps.size(); ++i)
    std::printf("rep %zu %s seed %llu: setup %.6f s, wall %.6f s, digest %s, "
                "cpu %d\n",
                i, reps[i].traced ? "traced" : "untraced",
                static_cast<unsigned long long>(seeds[reps[i].seed]),
                reps[i].setup.total(), reps[i].wall_s,
                hex(reps[i].digest).c_str(), reps[i].cpu);
  for (std::size_t s = 0; s < k; ++s)
    std::printf("ops seed %llu: %s\n", static_cast<unsigned long long>(seeds[s]),
                first[s]->ops.breakdown.c_str());
  std::printf("digest %s\n", hex(digest).c_str());
  std::printf("%s", e2e.text().c_str());

  // Per-layer metrics: the traced repetition's simulated counts and host
  // times, then those of the whole run.
  Report layers;
  if (args.trace) {
    const Rep& traced = reps[1];
    for (const std::string& label : traced.unmapped)
      problems.push_back("event label '" + label +
                         "' is missing from the label->layer map");
    for (const Metric& m : traced.layers.metrics()) layers.add(m);
    for (const Metric& m : traced.host_layers.metrics()) layers.add(m);
    layers.add("setup.cluster_s", "s", Clock::kHost, setup.parts.cluster_s);
    layers.add("setup.install_s", "s", Clock::kHost, setup.parts.install_s);
    layers.add("setup.warmup_s", "s", Clock::kHost, setup.parts.warmup_s);
    // Per seed with a traced repetition: median traced over median
    // untraced wall time; averaged over those seeds.
    double traced_over_untraced = 0.0;
    std::size_t paired = 0;
    for (std::size_t s = 0; s < k; ++s) {
      if (traced_wall[s].empty()) continue;
      traced_over_untraced += median(traced_wall[s]) / median(untraced_wall[s]);
      ++paired;
    }
    layers.add("trace.overhead", "ratio", Clock::kHost,
               traced_over_untraced / static_cast<double>(paired) - 1.0);
    std::printf("%s", layers.text().c_str());
    std::printf("coverage: layer buckets %.1f%% + sim.dispatch_s %.1f%% of "
                "traced wall %.3f s\n",
                100.0 * traced.handler_s / traced.wall_s,
                100.0 * traced.dispatch_s / traced.wall_s, traced.wall_s);
    if (!args.spans_out.empty()) {
      std::ofstream f(args.spans_out);
      f << spans.chrome_json();
      if (!f) problems.push_back("could not write spans to " + args.spans_out);
    }
  }

  for (const std::string& p : problems) std::printf("FAILED: %s\n", p.c_str());
  const bool correct = problems.empty();
  const Report& shown = args.trace ? layers : e2e;
  std::printf("%s\n", shown.json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
