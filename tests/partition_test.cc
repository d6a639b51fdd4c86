// Network-partition matrix: the crash matrix's sibling for the failure mode
// a crash cannot model — the victim is alive but unreachable.
//
// A process migrates between two workstations while a scripted victim —
// migration source, target, the process's home machine, the file server
// holding its open stream, or migd's host — is partitioned from every other
// host at each protocol stage. In the healing variant the partition lasts
// 15 s (past the down verdict, so reintegration runs); in the never-heal
// variant it lasts to the end of the run. Either way the cluster must
// converge: no half-open migrations, no residual images, no frozen
// processes, and every down/reboot notification originating from a host
// monitor (Host::peer_crashed CHECK-fails otherwise — no ground truth).
//
// Seed sweep: SPRITE_PARTITION_SEEDS (count, default 2); CI's fault-sweep
// job raises it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "kern/cluster.h"
#include "loadshare/facility.h"
#include "migration/manager.h"
#include "proc/script.h"
#include "proc/table.h"
#include "recov/monitor.h"
#include "rpc/rpc.h"
#include "sim/fault.h"
#include "util/log.h"
#include "vm/vm.h"

namespace sprite {
namespace {

using kern::Cluster;
using mig::MigStage;
using proc::Pid;
using proc::ScriptBuilder;
using proc::ScriptProgram;
using sim::FaultPlan;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Status;

fs::Bytes make_bytes(const std::string& s) {
  return fs::Bytes(s.begin(), s.end());
}

std::vector<std::uint64_t> sweep_seeds() {
  int n = 2;
  if (const char* e = std::getenv("SPRITE_PARTITION_SEEDS")) n = std::atoi(e);
  std::vector<std::uint64_t> seeds;
  for (int i = 1; i <= std::max(1, n); ++i)
    seeds.push_back(static_cast<std::uint64_t>(i));
  return seeds;
}

// Isolates `victim` from every other host (both directions), and restores.
void set_isolated(Cluster& cluster, HostId victim, bool isolated) {
  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h) {
    if (h == victim) continue;
    cluster.net().set_link_up(victim, h, !isolated);
    cluster.net().set_link_up(h, victim, !isolated);
  }
}

enum class Victim : int { kSource, kTarget, kHome, kFileServer, kMigd };

const char* victim_name(Victim v) {
  switch (v) {
    case Victim::kSource: return "Source";
    case Victim::kTarget: return "Target";
    case Victim::kHome: return "Home";
    case Victim::kFileServer: return "FileServer";
    case Victim::kMigd: return "Migd";
  }
  return "?";
}

using MatrixParam = std::tuple<Victim, MigStage, bool, std::uint64_t>;

class PartitionMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(PartitionMatrixTest, ClusterConvergesAcrossPartition) {
  if (std::getenv("SPRITE_TEST_VERBOSE"))
    util::set_log_level(util::LogLevel::kInfo);
  const auto [victim, stage, heals, seed] = GetParam();
  Cluster cluster({.num_workstations = 4, .num_file_servers = 2, .seed = seed});
  ls::Facility facility(cluster, ls::Arch::kCentral);

  const auto wss = cluster.workstations();
  const HostId home = wss[0];
  const HostId source = wss[1];
  const HostId target = wss[2];
  const HostId file_server = cluster.file_server(1).id();
  const HostId migd = cluster.file_server(0).id();
  HostId victim_host = sim::kInvalidHost;
  switch (victim) {
    case Victim::kSource: victim_host = source; break;
    case Victim::kTarget: victim_host = target; break;
    case Victim::kHome: victim_host = home; break;
    case Victim::kFileServer: victim_host = file_server; break;
    case Victim::kMigd: victim_host = migd; break;
  }

  ASSERT_TRUE(cluster.file_server(1).fs_server()->mkdir_p("/s1").is_ok());
  ScriptBuilder b;
  b.act(proc::SysOpen{"/s1/data", fs::OpenFlags::create_rw()})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("before-"), 0};
      })
      .act(proc::Touch{vm::Segment::kHeap, 0, 64, true})
      .compute(Time::sec(10))
      .step([](ScriptProgram::Ctx& c) {
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("after"), 0};
      })
      .act(proc::SysExit{7});
  ASSERT_TRUE(
      cluster.install_program("/bin/partwork", b.image(16, 64, 4)).is_ok());

  util::Result<Pid> spawned(Err::kAgain);
  bool spawn_done = false;
  cluster.host(home).procs().spawn("/bin/partwork", {},
                                   [&](util::Result<Pid> r) {
                                     spawned = std::move(r);
                                     spawn_done = true;
                                   });
  cluster.run_until_done([&] { return spawn_done; });
  ASSERT_TRUE(spawned.is_ok()) << spawned.status().to_string();
  const Pid pid = *spawned;
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));

  {
    auto pcb = cluster.host(home).procs().find(pid);
    ASSERT_TRUE(pcb != nullptr);
    Status st(Err::kAgain);
    bool done = false;
    cluster.host(home).mig().migrate(pcb, source, [&](Status s) {
      st = s;
      done = true;
    });
    cluster.run_until_done([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  }

  bool partition_fired = false;
  cluster.host(source).mig().add_stage_observer(
      [&, victim_host = victim_host, heals = heals](Pid p, MigStage s) {
        if (p != pid || s != stage || partition_fired) return;
        partition_fired = true;
        set_isolated(cluster, victim_host, true);
        if (heals)
          cluster.sim().after(Time::sec(15), [&cluster, victim_host] {
            set_isolated(cluster, victim_host, false);
          });
      });

  auto pcb = cluster.host(source).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  bool mig_done = false;
  cluster.host(source).mig().migrate(pcb, target,
                                     [&](Status) { mig_done = true; });

  // Long enough for suspicion to age into down verdicts (~8.5 s), the heal
  // plus reintegration when scripted, and the 10 s compute wherever the
  // process ended up.
  cluster.sim().run_until(cluster.sim().now() + Time::sec(120));

  EXPECT_TRUE(partition_fired) << "migration never reached the scripted stage";
  // Nobody actually crashed: the partition is the only fault.
  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h)
    ASSERT_FALSE(cluster.host_crashed(h));

  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h) {
    EXPECT_EQ(cluster.host(h).mig().active_migrations(), 0u)
        << "half-open migration on host " << h;
    EXPECT_EQ(cluster.host(h).mig().xfer().residual_spaces(), 0u)
        << "leaked residual image on host " << h;
    for (const auto& p : cluster.host(h).procs().local_processes())
      EXPECT_NE(p->state, proc::ProcState::kFrozen)
          << "pid " << p->pid << " frozen forever on host " << h;
  }
  EXPECT_TRUE(mig_done) << "migration neither completed nor rolled back";
  // The home record resolved: the process finished, or a down verdict
  // (false or real from home's point of view) marked it exited.
  EXPECT_FALSE(cluster.host(home).procs().home_record_alive(pid));

  if (heals) {
    // Down peers are not probed (re-detection is organic), so survivors
    // with no post-heal traffic legitimately still hold the verdict. Give
    // each one a reason to talk to the victim — a single call gets one
    // doubtful attempt against a down peer, and the same-epoch reply
    // reintegrates it.
    int pokes_pending = 0;
    for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h) {
      if (h == victim_host) continue;
      ++pokes_pending;
      cluster.host(h).rpc().call(victim_host, rpc::ServiceId::kRecov, 0,
                                 nullptr, [&pokes_pending](
                                              util::Result<rpc::Reply>) {
                                   --pokes_pending;
                                 });
    }
    cluster.run_until_done([&] { return pokes_pending == 0; });
    for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h) {
      if (h == victim_host) continue;
      EXPECT_NE(cluster.host(h).monitor().peer_state(victim_host),
                recov::PeerState::kDown)
          << "host " << h << " never reintegrated the healed victim";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PartitionMatrixTest,
    ::testing::Combine(::testing::Values(Victim::kSource, Victim::kTarget,
                                         Victim::kHome, Victim::kFileServer,
                                         Victim::kMigd),
                       ::testing::Values(MigStage::kInit, MigStage::kFreeze,
                                         MigStage::kVmTransfer,
                                         MigStage::kStreams,
                                         MigStage::kResume),
                       ::testing::Bool(),  // heals
                       ::testing::ValuesIn(sweep_seeds())),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      const char* stage = "";
      switch (std::get<1>(info.param)) {
        case MigStage::kInit: stage = "Init"; break;
        case MigStage::kFreeze: stage = "Freeze"; break;
        case MigStage::kVmTransfer: stage = "VmTransfer"; break;
        case MigStage::kStreams: stage = "Streams"; break;
        case MigStage::kResume: stage = "Resume"; break;
        case MigStage::kXferRound: stage = "XferRound"; break;
      }
      return std::string(victim_name(std::get<0>(info.param))) + "At" + stage +
             (std::get<2>(info.param) ? "Heals" : "NeverHeals") + "Seed" +
             std::to_string(std::get<3>(info.param));
    });

// ---------------------------------------------------------------------------
// Determinism: scripted partitions replay byte-identically per seed
// ---------------------------------------------------------------------------

std::string traced_partition_run(std::uint64_t seed) {
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1, .seed = seed});
  cluster.sim().trace().set_tracing(true);
  ls::Facility facility(cluster, ls::Arch::kCentral);
  const auto wss = cluster.workstations();

  ScriptBuilder b;
  b.act(proc::SysOpen{"/pdetfile", fs::OpenFlags::create_rw()})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("det"), 0};
      })
      .act(proc::Touch{vm::Segment::kHeap, 0, 32, true})
      .compute(Time::sec(15))
      .act(proc::SysExit{0});
  SPRITE_CHECK(
      cluster.install_program("/bin/pdetwork", b.image(16, 32, 4)).is_ok());

  FaultPlan plan(cluster.sim(), cluster.net());
  // Scripted two-sided partition mid-migration, healing at 20 s, plus a
  // one-way cut that never heals inside the window of the run.
  plan.partition({wss[1]}, {wss[0], wss[2], cluster.file_server(0).id()},
                 Time::sec(3), Time::sec(20));
  plan.cut_link(wss[3], wss[2], Time::sec(5), Time::sec(12));
  plan.arm({.crash = [&cluster](HostId h) { cluster.crash_host(h); },
            .reboot = [&cluster](HostId h) { cluster.reboot_host(h); }});

  bool spawn_done = false;
  Pid pid = proc::kInvalidPid;
  cluster.host(wss[0]).procs().spawn("/bin/pdetwork", {},
                                     [&](util::Result<Pid> r) {
                                       if (r.is_ok()) pid = *r;
                                       spawn_done = true;
                                     });
  cluster.run_until_done([&] { return spawn_done; });
  SPRITE_CHECK(pid != proc::kInvalidPid);
  cluster.sim().after(Time::sec(1), [&cluster, &wss, pid] {
    auto pcb = cluster.host(wss[0]).procs().find(pid);
    if (!pcb) return;
    cluster.host(wss[0]).mig().migrate(pcb, wss[1], [](Status) {});
  });

  cluster.sim().run_until(Time::sec(60));
  return cluster.sim().trace().chrome_json();
}

class PartitionDeterminismTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionDeterminismTest, SameSeedSamePlanIsByteIdentical) {
  const std::uint64_t seed = GetParam();
  const std::string a = traced_partition_run(seed);
  const std::string b = traced_partition_run(seed);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "partition schedule replay diverged for seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionDeterminismTest,
                         ::testing::ValuesIn(sweep_seeds()));

}  // namespace
}  // namespace sprite
