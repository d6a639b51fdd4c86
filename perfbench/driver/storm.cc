// storm: a pmake stampede at four times the paper's cluster. Closed loop:
// kControllers apps::Pmake controllers on distinct workstations of a
// 128-workstation, single-file-server cluster each keep kMaxJobs exec-time
// compiles in flight through the central migd, wave after wave. Time goes
// to host selection, the fixed per-migration protocol (init, streams, PCB)
// and file-server name lookups; no address space moves, so transfer-engine
// changes should not move it.
//
// Sized below the single file server's knee: 16 compiles in flight keep it
// about 45 % busy, migrations at about 95 ms (median) and migd's grants
// under a second (median). At 32 in flight the server ran 65-78 % busy and
// migrations took 180-215 ms; at 64 in flight it ran 82 % busy, migrations
// took 700-730 ms and grants sat in the registry's 5 s overflow bucket.
// 256 hosts did not finish in minutes of host time, or exhausted RPC
// retries on spawns.
#include "workload.h"

#include "apps/pmake.h"
#include "core/sprite.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using sprite::apps::Pmake;
using sprite::apps::Target;
using sprite::sim::Time;

constexpr int kWorkstations = 128;
constexpr int kControllers = 4;
constexpr int kMaxJobs = 4;
constexpr int kWaves = 10;
// Each build has 25-30 compiles plus a link, so ten waves of four builds
// make at least 1,040 exec-time migrations.
constexpr int kMinFiles = 25;
constexpr int kMaxFiles = 30;

class Storm : public Workload {
 public:
  explicit Storm(std::uint64_t seed) : seed_(seed) {}

  SetupTimes setup(SpanLog& spans) override {
    SetupTimes t;
    {
      Phase p(spans, "setup.cluster");
      sprite::core::SpriteCluster::Options o;
      o.workstations = kWorkstations;
      o.seed = seed_;
      cluster_ = std::make_unique<sprite::core::SpriteCluster>(o);
      t.cluster_s = p.finish();
    }
    {
      // The build graphs: per wave and controller, a seeded number of
      // compiles with seeded CPU demand over a seeded set of shared headers,
      // each controller under its own source tree.
      Phase p(spans, "setup.install");
      sprite::util::Rng rng(seed_ ^ 0x5707a5707aULL);
      for (int w = 0; w < kWaves; ++w) {
        for (int c = 0; c < kControllers; ++c) {
          const std::string root =
              "/src/w" + std::to_string(w) + "c" + std::to_string(c);
          const int files =
              static_cast<int>(rng.uniform_int(kMinFiles, kMaxFiles));
          const int headers = static_cast<int>(rng.uniform_int(1, 3));
          std::vector<Target> graph;
          std::vector<std::string> objects;
          for (int i = 0; i < files; ++i) {
            Target tg;
            tg.name = root + "/f" + std::to_string(i) + ".o";
            tg.deps = {root + "/f" + std::to_string(i) + ".c"};
            for (int h = 0; h < headers; ++h)
              tg.includes.push_back("/include/h" + std::to_string(h) + ".h");
            tg.cpu = Time::msec(static_cast<double>(rng.uniform_int(3000, 6000)));
            graph.push_back(tg);
            objects.push_back(tg.name);
          }
          Target link;
          link.name = root + "/prog";
          link.deps = objects;
          link.cpu = Time::sec(2);
          link.write_bytes = 256 * 1024;
          graph.push_back(link);
          builds_.push_back(std::move(graph));
        }
      }
      sprite::apps::install_cc(cluster_->kernel());
      for (int w = 0; w < kWaves; ++w)
        for (int c = 0; c < kControllers; ++c) {
          Pmake prep(cluster_->kernel(), options(c), build(w, c));
          prep.prepare();
        }
      t.install_s = p.finish();
    }
    {
      Phase p(spans, "setup.warmup");
      cluster_->warm_up();
      t.warmup_s = p.finish();
    }
    return t;
  }

  sprite::kern::Cluster& cluster() override { return cluster_->kernel(); }

  void run(SpanLog& spans, DriftProbe& drift) override {
    sprite::sim::Simulator& sim = cluster_->sim();
    const Time slice = Time::sec(1);
    Time next_mark = sim.now();
    for (int w = 0; w < kWaves; ++w) {
      Phase wave(spans, "run.wave");
      int done = 0;
      for (int c = 0; c < kControllers; ++c) {
        // Kept until the repetition ends: a finished build can still have
        // a host-request retry timer pending.
        pmakes_.push_back(
            std::make_unique<Pmake>(cluster_->kernel(), options(c), build(w, c)));
        const int span = spans.begin("run.pmake", wave.id());
        pmakes_.back()->run([this, &done, &spans, span](Pmake::Result r) {
          spans.end(span);
          results_.push_back(r);
          end_ = cluster_->sim().now();
          ++done;
        });
      }
      cluster_->kernel().run_until_done([&] {
        if (sim.now() >= next_mark) {
          drift.mark(sim.now().s(), sim.profiler().events());
          next_mark = sim.now() + slice;
        }
        return done == kControllers;
      });
    }
    drift.mark(sim.now().s(), sim.profiler().events());
  }

  void finish(Outcome& out) override {
    out.end_s = end_.s();
    std::size_t targets = 0;
    for (const auto& b : builds_) targets += b.size();
    if (results_.size() != builds_.size())
      out.problems.push_back(std::to_string(results_.size()) + " of " +
                             std::to_string(builds_.size()) +
                             " builds finished");
    for (const Pmake::Result& r : results_) {
      out.pmake_jobs += r.jobs;
      out.pmake_remote += r.remote_jobs;
      out.pmake_failed += r.failed_jobs;
      out.pmake_build_s.push_back(r.makespan.s());
    }
    out.jobs = out.pmake_jobs;
    out.jobs_failed = out.pmake_failed;
    if (out.pmake_jobs != static_cast<std::int64_t>(targets))
      out.problems.push_back("jobs run " + std::to_string(out.pmake_jobs) +
                             " != targets " + std::to_string(targets));
    if (out.pmake_remote != out.pmake_jobs)
      out.problems.push_back(std::to_string(out.pmake_jobs - out.pmake_remote) +
                             " jobs ran on a controller");
    // Every job is accounted for: each remote job is one exec-time
    // migration off its controller, and each output exists on the server.
    std::int64_t exec_moves = 0;
    for (int c = 0; c < kControllers; ++c)
      for (const auto& r :
           cluster_->host(cluster_->workstation(controller(c))).mig().records())
        if (r.exec_time) ++exec_moves;
    if (exec_moves != out.pmake_remote - out.pmake_failed)
      out.problems.push_back("exec-time migrations " +
                             std::to_string(exec_moves) + " != remote jobs " +
                             std::to_string(out.pmake_remote - out.pmake_failed));
    if (exec_moves < 1000)
      out.problems.push_back("only " + std::to_string(exec_moves) +
                             " exec-time migrations");
    auto* server = cluster_->kernel().fs_primary().fs_server();
    for (const auto& b : builds_)
      for (const Target& t : b)
        if (!server->stat_path(t.name).is_ok())
          out.problems.push_back("missing output " + t.name);
  }

 private:
  // Controllers sit on distinct workstations spread across the cluster.
  static int controller(int c) { return c * (kWorkstations / kControllers); }

  Pmake::Options options(int c) {
    Pmake::Options o;
    o.controller = cluster_->workstation(controller(c));
    o.max_jobs = kMaxJobs;
    o.run_local_job = false;
    o.facility = &cluster_->load_sharing();
    return o;
  }

  std::vector<Target> build(int wave, int c) const {
    return builds_[static_cast<std::size_t>(wave * kControllers + c)];
  }

  std::uint64_t seed_;
  std::unique_ptr<sprite::core::SpriteCluster> cluster_;
  std::vector<std::vector<Target>> builds_;  // wave-major
  std::vector<std::unique_ptr<Pmake>> pmakes_;
  std::vector<Pmake::Result> results_;
  Time end_;
};

}  // namespace

std::unique_ptr<Workload> make_storm(std::uint64_t seed) {
  return std::make_unique<Storm>(seed);
}

}  // namespace perfbench
