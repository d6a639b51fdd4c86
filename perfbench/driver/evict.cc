// evict: the paper's reclaim promise, run through the live-transfer engine.
// Open-loop owner-return schedule over a fixed guest population: half the
// workstations are homes, each running guests of one shared executable that
// keep a 1-2 MB heap dirty; the other half are targets whose owners come and
// go. Each guest is live-migrated to a target, evicted home when that
// target's owner returns (Host::note_user_input), and placed again. The VM
// strategy rotates per workstation across sprite-flush, iter-pre-copy,
// post-copy and content-addressed, and guests keep returning to the same
// few targets so content-addressed transfer has program text to hit.
// Owner returns arrive on a seeded Poisson schedule regardless of how far
// the last eviction got, so evictions overlap on the shared medium.
//
// Time goes to page transfer; selection, recovery and the workload layer do
// little. This is the opposite use of the migration layer from storm (large
// dirty images against empty exec-time images).
#include <array>

#include "core/sprite.h"
#include "proc/script.h"
#include "proc/table.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using sprite::mig::VmStrategy;
using sprite::proc::Pid;
using sprite::sim::HostId;
using sprite::sim::Time;

constexpr int kHomes = 12;  // one guest each
constexpr int kTargets = 12;
// Each guest dirties 1-2 MB of 4 KB heap pages: 384 +- up to 128.
constexpr std::int64_t kMeanGuestPages = 384;
constexpr std::int64_t kPageSpread = 64;
constexpr std::int64_t kMaxGuestPages = 512;
constexpr int kEvictions = 1000;
constexpr double kReturnGapS = 3.0;      // mean of the owner-return schedule
constexpr double kPresentMinS = 5.0;     // an owner stays this long ...
constexpr double kPresentMaxS = 15.0;    // ... up to this
constexpr std::array<VmStrategy, 4> kStrategies = {
    VmStrategy::kSpriteFlush, VmStrategy::kIterPreCopy, VmStrategy::kPostCopy,
    VmStrategy::kContentAddr};
constexpr int kClasses = static_cast<int>(kStrategies.size());

// "/bin/guest <pages>": dirty that much heap, compute, repeat forever.
sprite::proc::ProgramImage guest_image() {
  sprite::proc::ProgramImage img;
  img.code_pages = 64;
  img.heap_pages = kMaxGuestPages;
  img.stack_pages = 4;
  img.factory = [](const std::vector<std::string>& args) {
    const std::int64_t pages = std::stoll(args.at(0));
    std::vector<sprite::proc::ScriptProgram::Step> steps;
    steps.push_back([pages](sprite::proc::ScriptProgram::Ctx&) {
      return sprite::proc::Action{
          sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, pages, true}};
    });
    steps.push_back([](sprite::proc::ScriptProgram::Ctx& c) {
      c.jump(0);
      return sprite::proc::Action{sprite::proc::Compute{Time::sec(2)}};
    });
    return std::make_unique<sprite::proc::ScriptProgram>(std::move(steps));
  };
  return img;
}

class Evict : public Workload {
 public:
  explicit Evict(std::uint64_t seed) : seed_(seed), rng_(seed ^ 0xe71c7ULL) {}

  SetupTimes setup(SpanLog& spans) override {
    SetupTimes t;
    {
      Phase p(spans, "setup.cluster");
      sprite::core::SpriteCluster::Options o;
      o.workstations = kHomes + kTargets;
      o.seed = seed_;
      o.horizon = Time::hours(12);
      cluster_ = std::make_unique<sprite::core::SpriteCluster>(o);
      for (int i = 0; i < kHomes + kTargets; ++i)
        cluster_->host(cluster_->workstation(i))
            .mig()
            .set_strategy(kStrategies[static_cast<std::size_t>(i % kClasses)]);
      sprite::trace::Registry& tr = cluster_->sim().trace();
      for (int i = 0; i < kTargets; ++i) {
        Target tg;
        tg.id = cluster_->workstation(kHomes + i);
        tg.evict_ms = &tr.histogram("ls.eviction.latency_ms",
                                    sprite::trace::default_latency_bounds_ms(),
                                    tg.id);
        targets_.push_back(tg);
      }
      t.cluster_s = p.finish();
    }
    {
      Phase p(spans, "setup.install");
      cluster_->install_program("/bin/guest", guest_image());
      t.install_s = p.finish();
    }
    {
      Phase p(spans, "setup.warmup");
      cluster_->warm_up();
      t.warmup_s = p.finish();
    }
    {
      // Heap sizes: each strategy class's three guests get 1152 pages
      // between them, split by the seed, so which guest (and so which home
      // and targets) carries the big heap changes from seed to seed while
      // the volume every strategy moves does not.
      std::vector<std::int64_t> pages(kHomes);
      for (int c = 0; c < kClasses; ++c) {
        const std::int64_t a = rng_.uniform_int(-kPageSpread, kPageSpread);
        const std::int64_t b = rng_.uniform_int(-kPageSpread, kPageSpread);
        pages[static_cast<std::size_t>(c)] = kMeanGuestPages + a;
        pages[static_cast<std::size_t>(c + kClasses)] = kMeanGuestPages + b;
        pages[static_cast<std::size_t>(c + 2 * kClasses)] =
            kMeanGuestPages - a - b;
      }
      Phase p(spans, "setup.spawn");
      for (int h = 0; h < kHomes; ++h) {
        Guest g;
        g.home = cluster_->workstation(h);
        g.pid = cluster_->spawn(
            g.home, "/bin/guest",
            {std::to_string(pages[static_cast<std::size_t>(h)])});
        // Repeat targets: each guest keeps to three of them, all in its
        // home's strategy class (workstation index mod kClasses).
        for (const int off : {0, kClasses, 2 * kClasses})
          g.prefs.push_back((h + off) % kTargets);
        guests_.push_back(g);
      }
      t.spawn_s = p.finish();
    }
    return t;
  }

  sprite::kern::Cluster& cluster() override { return cluster_->kernel(); }

  void run(SpanLog& spans, DriftProbe& drift) override {
    sprite::sim::Simulator& sim = cluster_->sim();
    spans_ = &spans;
    run_span_ = spans.begin("run.evict");
    schedule_return(sim.now() + Time::sec(rng_.exponential(kReturnGapS)));
    Time next_mark = sim.now();
    drift.mark(sim.now().s(), sim.profiler().events());
    while (true) {
      place_home_guests();
      cluster_->kernel().run_until_done([&] {
        if (sim.now() >= next_mark) {
          drift.mark(sim.now().s(), sim.profiler().events());
          next_mark = sim.now() + Time::sec(1);
        }
        return wake_ || eviction_finished();
      });
      wake_ = false;
      reap_evictions();
      if (reaped_ >= kEvictions && placing_ == 0 && evicting_ == 0) break;
    }
    drift.mark(sim.now().s(), sim.profiler().events());
    spans.end(run_span_);
  }

  void finish(Outcome& out) override {
    out.end_s = end_.s();
    out.evict_ms = evict_ms_;
    out.evictions_unclean = unclean_;
    out.migrate_call_host_ms = call_host_ms_;
    if (reaped_ < kEvictions)
      out.problems.push_back("only " + std::to_string(reaped_) + " evictions");
    // Each guest is resident on exactly one host, and its home knows where.
    for (const Guest& g : guests_) {
      int resident = 0;
      HostId where = sprite::sim::kInvalidHost;
      for (std::size_t h = 0; h < cluster_->kernel().num_hosts(); ++h)
        if (cluster_->host(static_cast<HostId>(h)).procs().find(g.pid)) {
          ++resident;
          where = static_cast<HostId>(h);
        }
      if (resident != 1 || cluster_->locate(g.pid) != where)
        out.problems.push_back("guest " + std::to_string(g.pid) +
                               " resident on " + std::to_string(resident) +
                               " hosts");
    }
  }

 private:
  enum class State { kHome, kPlacing, kAway, kEvicting };

  struct Guest {
    Pid pid = sprite::proc::kInvalidPid;
    HostId home = sprite::sim::kInvalidHost;
    std::vector<int> prefs;  // target indices, in preference order
    State state = State::kHome;
    int at = -1;             // target index while placing/away/evicting
  };

  struct Target {
    HostId id = sprite::sim::kInvalidHost;
    const sprite::trace::LatencyHistogram* evict_ms = nullptr;
    bool owner_present = false;
    bool evicting = false;
    std::int64_t base_count = 0;  // histogram count when the owner returned
    double base_sum = 0.0;
    Time returned;
    int span = -1;
  };

  int guests_at(int target, State s) const {
    int n = 0;
    for (const Guest& g : guests_)
      if (g.at == target && g.state == s) ++n;
    return n;
  }

  // The owner of an occupied, quiet target comes back. Scheduled as a
  // simulator event so the schedule is exact in simulated time.
  void schedule_return(Time at) {
    cluster_->sim().at(at, "perfbench_owner", [this] { owner_returns(); });
  }

  void owner_returns() {
    sprite::sim::Simulator& sim = cluster_->sim();
    if (started_ >= kEvictions) return;
    schedule_return(sim.now() + Time::sec(rng_.exponential(kReturnGapS)));
    std::vector<int> candidates;
    for (int i = 0; i < kTargets; ++i) {
      const Target& t = targets_[static_cast<std::size_t>(i)];
      if (!t.owner_present && !t.evicting && guests_at(i, State::kAway) > 0 &&
          guests_at(i, State::kPlacing) == 0)
        candidates.push_back(i);
    }
    // Returns rotate over the strategy classes, so each run evicts through
    // every strategy equally often whatever the seed.
    std::vector<int> in_class;
    for (const int i : candidates)
      if (i % kClasses == started_ % kClasses)
        in_class.push_back(i);
    if (!in_class.empty()) candidates = in_class;
    // Both draws happen even when nothing can be evicted, so the schedule's
    // random stream advances the same way whatever the cluster is doing.
    const std::size_t pick =
        rng_.index(std::max<std::size_t>(candidates.size(), 1));
    const Time stay = Time::sec(rng_.uniform(kPresentMinS, kPresentMaxS));
    if (candidates.empty()) return;
    const int i = candidates[pick];
    Target& t = targets_[static_cast<std::size_t>(i)];
    t.owner_present = true;
    t.evicting = true;
    t.base_count = t.evict_ms->count();
    t.base_sum = t.evict_ms->sum();
    t.returned = sim.now();
    t.span = spans_->begin("run.owner_return", run_span_);
    for (Guest& g : guests_)
      if (g.at == i && g.state == State::kAway) g.state = State::kEvicting;
    ++started_;
    ++evicting_;
    cluster_->host(t.id).note_user_input();
    sim.at(sim.now() + stay, "perfbench_owner", [this, i] {
      targets_[static_cast<std::size_t>(i)].owner_present = false;
      wake_ = true;
    });
    wake_ = true;
  }

  bool eviction_finished() const {
    for (const Target& t : targets_)
      if (t.evicting && t.evict_ms->count() > t.base_count) return true;
    return false;
  }

  void reap_evictions() {
    for (int i = 0; i < kTargets; ++i) {
      Target& t = targets_[static_cast<std::size_t>(i)];
      if (!t.evicting || t.evict_ms->count() == t.base_count) continue;
      // One eviction per target at a time, so the histogram's growth is
      // exactly this eviction's latency.
      const double ms = t.evict_ms->sum() - t.base_sum;
      evict_ms_.push_back(ms);
      end_ = std::max(end_, t.returned + Time::msec(ms));
      t.evicting = false;
      --evicting_;
      ++reaped_;
      spans_->end(t.span);
      if (!cluster_->host(t.id).procs().foreign_processes().empty()) ++unclean_;
      for (Guest& g : guests_)
        if (g.at == i && g.state == State::kEvicting) {
          g.state = State::kHome;
          g.at = -1;
        }
    }
  }

  // Moves every guest sitting at home to an empty, quiet target among its
  // own three (which share its home's strategy class).
  void place_home_guests() {
    if (started_ >= kEvictions) return;
    for (std::size_t gi = 0; gi < guests_.size(); ++gi) {
      Guest& g = guests_[gi];
      if (g.state != State::kHome) continue;
      int chosen = -1;
      for (const int i : g.prefs) {
        const Target& t = targets_[static_cast<std::size_t>(i)];
        if (!t.owner_present && !t.evicting &&
            guests_at(i, State::kAway) + guests_at(i, State::kPlacing) == 0) {
          chosen = i;
          break;
        }
      }
      if (chosen < 0) continue;
      auto pcb = cluster_->host(g.home).procs().find(g.pid);
      if (!pcb) continue;
      g.state = State::kPlacing;
      g.at = chosen;
      ++placing_;
      const int span = spans_->begin("run.migrate", run_span_);
      const HostClock::time_point t0 = HostClock::now();
      cluster_->host(g.home).mig().migrate(
          pcb, targets_[static_cast<std::size_t>(chosen)].id,
          [this, gi, span, t0](sprite::util::Status s) {
            call_host_ms_.push_back(seconds_since(t0) * 1e3);
            spans_->end(span);
            Guest& guest = guests_[gi];
            guest.state = s.is_ok() ? State::kAway : State::kHome;
            if (!s.is_ok()) guest.at = -1;
            --placing_;
            wake_ = true;
          });
    }
  }

  std::uint64_t seed_;
  sprite::util::Rng rng_;
  std::unique_ptr<sprite::core::SpriteCluster> cluster_;
  std::vector<Guest> guests_;
  std::vector<Target> targets_;
  SpanLog* spans_ = nullptr;
  int run_span_ = -1;
  bool wake_ = false;
  int started_ = 0;   // evictions triggered
  int reaped_ = 0;    // evictions observed complete
  int evicting_ = 0;
  int placing_ = 0;
  std::int64_t unclean_ = 0;
  std::vector<double> evict_ms_;
  std::vector<double> call_host_ms_;
  Time end_;
};

}  // namespace

std::unique_ptr<Workload> make_evict(std::uint64_t seed) {
  return std::make_unique<Evict>(seed);
}

}  // namespace perfbench
