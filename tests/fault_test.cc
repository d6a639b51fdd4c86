// Fault-injection tests: the crash matrix (who dies × when × the source's VM
// strategy), determinism of fault schedules, no-fault invariance,
// at-most-once behaviour under host flapping, stale-generation recovery, and
// load-sharing (migd) crash-restart.
//
// The crash matrix is the heart: a process migrates between two
// workstations while a scripted victim — migration source, target, the
// process's home machine, the file server holding its open stream, or
// migd's host — crashes at each protocol stage and reboots two seconds
// later. Whatever happens to the process (finishes, dies with the crash
// exit status, or is silently reaped when its home vanished), the cluster
// must converge: no half-open migrations, no residual images, no frozen or
// leaked PCBs, and the home record resolved. The source migrates with
// Sprite's flush or with post-copy, whose residual image must end too.
//
// Seed sweep: the matrix and determinism suites re-run under every seed in
// SPRITE_FAULT_SEEDS (count, default 2); CI's fault-sweep job raises it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/image.h"
#include "ckpt/manager.h"
#include "fs/server.h"
#include "kern/cluster.h"
#include "loadshare/facility.h"
#include "loadshare/wire.h"
#include "migration/manager.h"
#include "proc/script.h"
#include "proc/table.h"
#include "rpc/rpc.h"
#include "sim/fault.h"
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
  if (const char* e = std::getenv("SPRITE_FAULT_SEEDS")) n = std::atoi(e);
  std::vector<std::uint64_t> seeds;
  for (int i = 1; i <= std::max(1, n); ++i)
    seeds.push_back(static_cast<std::uint64_t>(i));
  return seeds;
}

FaultPlan::Hooks cluster_hooks(Cluster& cluster) {
  return {.crash = [&cluster](HostId h) { cluster.crash_host(h); },
          .reboot = [&cluster](HostId h) { cluster.reboot_host(h); }};
}

// ---------------------------------------------------------------------------
// Crash matrix
// ---------------------------------------------------------------------------

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

// The source's VM strategy is the fourth axis: sprite-flush leaves no
// residual dependency, post-copy leaves one until its push drains.
using MatrixParam =
    std::tuple<Victim, MigStage, std::uint64_t, mig::VmStrategy>;

class CrashMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(CrashMatrixTest, ClusterConvergesAfterCrashAndReboot) {
  const auto [victim, stage, seed, strategy] = GetParam();
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

  // The process keeps an open stream on the second file server (so a file
  // server crash is distinguishable from migd's host, file server 0),
  // dirties heap pages, computes, then writes again — the post-crash write
  // exercises the stale-generation reopen when the server rebooted.
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
      cluster.install_program("/bin/faultwork", b.image(16, 64, 4)).is_ok());

  // Spawn on `home`, then move it to `source` so home != source for the
  // faulted migration.
  util::Result<Pid> spawned(Err::kAgain);
  bool spawn_done = false;
  cluster.host(home).procs().spawn("/bin/faultwork", {},
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
  cluster.host(source).mig().set_strategy(strategy);

  bool exited = false;
  int exit_status = -1;
  cluster.host(home).procs().notify_on_exit(pid, [&](int s) {
    exited = true;
    exit_status = s;
  });

  bool crash_fired = false;
  cluster.host(source).mig().add_stage_observer(
      [&, victim_host = victim_host](Pid p, MigStage s) {
        if (p != pid || s != stage || crash_fired) return;
        crash_fired = true;
        cluster.crash_host(victim_host);
        cluster.sim().after(Time::sec(2), [&cluster, victim_host] {
          cluster.reboot_host(victim_host);
        });
      });

  Status mig_status(Err::kAgain);
  bool mig_done = false;
  auto pcb = cluster.host(source).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  cluster.host(source).mig().migrate(pcb, target, [&](Status s) {
    mig_status = s;
    mig_done = true;
  });

  // Long enough for retries, the reboot, stale-reopen recovery, and the 10 s
  // compute wherever the process ended up.
  cluster.sim().run_until(cluster.sim().now() + Time::sec(120));

  EXPECT_TRUE(crash_fired) << "migration never reached the scripted stage";
  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h) {
    EXPECT_FALSE(cluster.host_crashed(h)) << "host " << h << " still down";
    EXPECT_EQ(cluster.host(h).mig().active_migrations(), 0u)
        << "half-open migration on host " << h;
    EXPECT_EQ(cluster.host(h).mig().xfer().residual_spaces(), 0u)
        << "leaked residual image on host " << h;
    EXPECT_EQ(cluster.host(h).procs().find(pid), nullptr)
        << "leaked PCB on host " << h;
    for (const auto& p : cluster.host(h).procs().local_processes())
      EXPECT_NE(p->state, proc::ProcState::kFrozen)
          << "pid " << p->pid << " frozen forever on host " << h;
  }
  // The home record resolved one way or the other.
  EXPECT_FALSE(cluster.host(home).procs().home_record_alive(pid));
  if (victim != Victim::kHome) {
    // The waiter unblocked: the process finished (7) or died with the crash
    // (137). Only a home crash may silently drop the observer.
    EXPECT_TRUE(exited);
    EXPECT_TRUE(exit_status == 7 ||
                exit_status == proc::kHostCrashExitStatus)
        << "unexpected exit status " << exit_status;
  }
  if (victim == Victim::kTarget && stage != MigStage::kResume) {
    // A target crash before completion must roll back: the migrate call
    // fails and the process finishes where it was.
    EXPECT_TRUE(mig_done);
    EXPECT_FALSE(mig_status.is_ok());
    EXPECT_EQ(exit_status, 7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrashMatrixTest,
    ::testing::Combine(::testing::Values(Victim::kSource, Victim::kTarget,
                                         Victim::kHome, Victim::kFileServer,
                                         Victim::kMigd),
                       ::testing::Values(MigStage::kInit, MigStage::kFreeze,
                                         MigStage::kVmTransfer,
                                         MigStage::kStreams,
                                         MigStage::kResume),
                       ::testing::ValuesIn(sweep_seeds()),
                       ::testing::Values(mig::VmStrategy::kSpriteFlush,
                                         mig::VmStrategy::kPostCopy)),
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
      return std::string(victim_name(std::get<0>(info.param))) + "At" +
             stage + "Seed" + std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) == mig::VmStrategy::kPostCopy
                  ? "PostCopy"
                  : "");
    });

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

// One traced run: a migrating workload under an optional fault schedule.
// Returns the full Chrome-trace export, which captures every event and its
// timestamp — byte equality means the runs were indistinguishable.
std::string traced_run(std::uint64_t seed, bool with_plan, bool empty_plan) {
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1, .seed = seed});
  cluster.sim().trace().set_tracing(true);
  ls::Facility facility(cluster, ls::Arch::kCentral);
  const auto wss = cluster.workstations();

  ScriptBuilder b;
  b.act(proc::SysOpen{"/detfile", fs::OpenFlags::create_rw()})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("det"), 0};
      })
      .act(proc::Touch{vm::Segment::kHeap, 0, 32, true})
      .compute(Time::sec(15))
      .act(proc::SysExit{0});
  SPRITE_CHECK(
      cluster.install_program("/bin/detwork", b.image(16, 32, 4)).is_ok());

  std::unique_ptr<FaultPlan> plan;
  if (with_plan) {
    plan = std::make_unique<FaultPlan>(cluster.sim(), cluster.net());
    if (!empty_plan) {
      // Crash the migration target mid-run and reboot it; drop one FS I/O
      // request and delay one reply for good measure.
      plan->crash_host(wss[1], Time::sec(3), Time::sec(2));
      plan->drop_message(
          rpc::RpcNode::match_request(rpc::ServiceId::kFsIo), 2);
      plan->delay_message(rpc::RpcNode::match_reply(), 5, Time::msec(7));
    }
    plan->arm(cluster_hooks(cluster));
  }

  bool spawn_done = false;
  Pid pid = proc::kInvalidPid;
  cluster.host(wss[0]).procs().spawn("/bin/detwork", {},
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

class FaultDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultDeterminismTest, SameSeedSamePlanIsByteIdentical) {
  const std::uint64_t seed = GetParam();
  const std::string a = traced_run(seed, true, /*empty_plan=*/false);
  const std::string b = traced_run(seed, true, /*empty_plan=*/false);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "fault schedule replay diverged for seed " << seed;
}

TEST_P(FaultDeterminismTest, ArmedEmptyPlanIsObservationallyAbsent) {
  const std::uint64_t seed = GetParam();
  const std::string without = traced_run(seed, false, false);
  const std::string with_empty = traced_run(seed, true, /*empty_plan=*/true);
  EXPECT_EQ(without, with_empty)
      << "an armed plan with no entries perturbed the run for seed " << seed;
}

// Full hook set including the storage-fault vocabulary, wired the way the
// nemesis harness wires it.
FaultPlan::Hooks full_hooks(Cluster& cluster) {
  return {.crash = [&cluster](HostId h) { cluster.crash_host(h); },
          .reboot = [&cluster](HostId h) { cluster.reboot_host(h); },
          .corrupt =
              [&cluster](HostId h, std::uint64_t d) {
                if (auto* s = cluster.host(h).fs_server())
                  s->inject_bit_flip(d);
              },
          .disk_full =
              [&cluster](HostId h, bool on) {
                if (auto* s = cluster.host(h).fs_server())
                  s->set_disk_full(on);
              },
          .torn = [&cluster](HostId h, std::uint64_t d) {
            if (auto* s = cluster.host(h).fs_server()) s->tear_last_write(d);
          }};
}

// Like traced_run, but over the extended fault vocabulary. mode 0: no plan;
// mode 1: armed plan with full hooks (storage included) and no entries;
// mode 2: duplicated + reordered frames, a corrupted block, and a disk-full
// window.
std::string traced_run_integrity(std::uint64_t seed, int mode) {
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1, .seed = seed});
  cluster.sim().trace().set_tracing(true);
  ls::Facility facility(cluster, ls::Arch::kCentral);
  const auto wss = cluster.workstations();
  const HostId server = cluster.file_server().id();

  ScriptBuilder b;
  b.act(proc::SysOpen{"/detfile2", fs::OpenFlags::create_rw()})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("integrity"), 0};
      })
      .act(proc::Touch{vm::Segment::kHeap, 0, 32, true})
      .compute(Time::sec(15))
      .act(proc::SysExit{0});
  SPRITE_CHECK(
      cluster.install_program("/bin/intwork", b.image(16, 32, 4)).is_ok());

  std::unique_ptr<FaultPlan> plan;
  if (mode >= 1) {
    plan = std::make_unique<FaultPlan>(cluster.sim(), cluster.net());
    if (mode == 2) {
      plan->duplicate_message(
          rpc::RpcNode::match_request(rpc::ServiceId::kFsIo), 1, 2,
          Time::msec(2));
      plan->reorder_message(rpc::RpcNode::match_reply(), 3, Time::msec(9));
      plan->corrupt_block(server, Time::sec(4), 0x5eedULL ^ seed);
      plan->disk_full(server, Time::sec(5), Time::sec(8));
    }
    plan->arm(full_hooks(cluster));
  }

  bool spawn_done = false;
  Pid pid = proc::kInvalidPid;
  cluster.host(wss[0]).procs().spawn("/bin/intwork", {},
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

// An armed plan with the full hook set — storage hooks included — and no
// entries must still be observationally identical to no plan at all.
TEST_P(FaultDeterminismTest, ArmedEmptyPlanWithStorageHooksIsAbsent) {
  const std::uint64_t seed = GetParam();
  const std::string without = traced_run_integrity(seed, 0);
  const std::string with_empty = traced_run_integrity(seed, 1);
  EXPECT_EQ(without, with_empty)
      << "armed storage-capable empty plan perturbed the run, seed " << seed;
}

// Duplication, reordering, corruption, and disk-full are all clock- and
// seed-deterministic: the same schedule replays bit-for-bit.
TEST_P(FaultDeterminismTest, DupReorderCorruptScheduleReplaysByteIdentically) {
  const std::uint64_t seed = GetParam();
  const std::string a = traced_run_integrity(seed, 2);
  const std::string b = traced_run_integrity(seed, 2);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "dup/reorder/corrupt replay diverged for seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultDeterminismTest,
                         ::testing::ValuesIn(sweep_seeds()));

// ---------------------------------------------------------------------------
// At-most-once under flapping
// ---------------------------------------------------------------------------

TEST(FaultRpcTest, FlappingHostReplaysCachedReplyWithoutReexecution) {
  // B is down when A's request first goes out; retransmissions bring it
  // through once B returns. The first reply is then dropped, so A
  // retransmits a request B has already executed — the at-most-once cache
  // must replay the reply without running the handler again.
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 3});
  const auto wss = cluster.workstations();
  const HostId a = wss[0], b = wss[1];

  int handler_runs = 0;
  cluster.host(b).rpc().register_service(
      rpc::ServiceId::kLoadShare,
      [&](HostId, const rpc::Request&,
          std::function<void(rpc::Reply)> respond) {
        ++handler_runs;
        respond(rpc::Reply{Status::ok(), nullptr});
      });

  FaultPlan plan(cluster.sim(), cluster.net());
  plan.drop_message(rpc::RpcNode::match_reply(a), 1);
  plan.arm(cluster_hooks(cluster));

  cluster.net().set_host_up(b, false);
  cluster.sim().after(Time::msec(150),
                      [&cluster, b] { cluster.net().set_host_up(b, true); });

  Status out(Err::kAgain);
  bool done = false;
  cluster.host(a).rpc().call(b, rpc::ServiceId::kLoadShare, 0,
                             std::make_shared<ls::GossipReq>(),
                             [&](util::Result<rpc::Reply> r) {
                               out = r.is_ok() ? r->status : r.status();
                               done = true;
                             });
  cluster.run_until_done([&] { return done; });

  EXPECT_TRUE(out.is_ok()) << out.to_string();
  EXPECT_EQ(handler_runs, 1)
      << "duplicate request re-executed a non-idempotent handler";
}

// ---------------------------------------------------------------------------
// Stale-generation recovery
// ---------------------------------------------------------------------------

TEST(FaultFsTest, StaleGenerationRecoversByReopen) {
  // A client stream survives its server's crash+reboot: the server's new
  // boot generation makes the next I/O fail kStale, the client reopens by
  // path, and the retried read returns the (durable) data.
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 5});
  const auto wss = cluster.workstations();
  const HostId client = wss[0];
  const HostId server = cluster.file_server(0).id();

  // Bypass the client block cache so the post-reboot read must consult the
  // server and see the generation mismatch.
  fs::OpenFlags flags = fs::OpenFlags::create_rw();
  flags.no_cache = true;
  fs::StreamPtr stream;
  bool ready = false;
  cluster.host(client).fs().open(
      "/stalefile", flags,
      [&](util::Result<fs::StreamPtr> r) {
        ASSERT_TRUE(r.is_ok());
        stream = *r;
        cluster.host(client).fs().write(
            stream, make_bytes("durable"), [&](util::Result<std::int64_t> w) {
              ASSERT_TRUE(w.is_ok());
              cluster.host(client).fs().fsync(stream, [&](Status s) {
                ASSERT_TRUE(s.is_ok());
                ready = true;
              });
            });
      });
  cluster.run_until_done([&] { return ready; });

  cluster.crash_host(server);
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  cluster.reboot_host(server);

  ASSERT_TRUE(cluster.host(client).fs().seek(stream, 0).is_ok());
  fs::Bytes data;
  bool read_done = false;
  cluster.host(client).fs().read(stream, 7, [&](util::Result<fs::Bytes> r) {
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    data = *r;
    read_done = true;
  });
  cluster.run_until_done([&] { return read_done; });

  EXPECT_EQ(std::string(data.begin(), data.end()), "durable");
  EXPECT_GE(cluster.sim()
                .trace()
                .counter("fs.client.stale.reopen", client)
                .value(),
            1)
      << "recovery did not go through the stale-reopen path";
}

TEST(FaultFsTest, MigratedStreamConvergesOnPromotedReplicaNoReboot) {
  // A process migrates while the file server holding its open stream dies
  // for good (no reboot). The crash lands at MigStage::kResume: the stream
  // has just arrived at the target pointing at a dead server, and so have
  // the paging streams for the process's swap files. The backup replica
  // promotes; the target's page-ins and the post-migration write park
  // through the down verdict and converge at the promoted replica — exactly
  // one incarnation, no client-visible error, no lost bytes.
  Cluster cluster({.num_workstations = 2,
                   .num_file_servers = 1,
                   .fs_replicas = 2,
                   .seed = 5});
  const auto wss = cluster.workstations();
  const HostId src = wss[0];
  const HostId dst = wss[1];
  const HostId primary = cluster.file_server().id();
  auto* backup = cluster.fs_backup().fs_server();

  ScriptBuilder b;
  b.act(proc::SysOpen{"/migfile", fs::OpenFlags::create_rw()})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("before-"), 0};
      })
      .compute(Time::sec(10))
      .step([](ScriptProgram::Ctx& c) {
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("after"), 0};
      })
      .act(proc::SysExit{7});
  ASSERT_TRUE(cluster.install_program("/bin/migwork", b.image()).is_ok());

  util::Result<Pid> spawned(Err::kAgain);
  bool spawn_done = false;
  cluster.host(src).procs().spawn("/bin/migwork", {},
                                  [&](util::Result<Pid> r) {
                                    spawned = std::move(r);
                                    spawn_done = true;
                                  });
  cluster.run_until_done([&] { return spawn_done; });
  ASSERT_TRUE(spawned.is_ok()) << spawned.status().to_string();
  const Pid pid = *spawned;
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));

  bool exited = false;
  int exit_status = -1;
  int exit_notifications = 0;
  cluster.host(src).procs().notify_on_exit(pid, [&](int s) {
    exited = true;
    exit_status = s;
    ++exit_notifications;
  });

  bool crash_fired = false;
  cluster.host(src).mig().add_stage_observer([&](Pid p, MigStage s) {
    if (p != pid || s != MigStage::kResume || crash_fired) return;
    crash_fired = true;
    cluster.crash_host(primary);  // and it never comes back
  });

  Status mig_status(Err::kAgain);
  bool mig_done = false;
  auto pcb = cluster.host(src).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  cluster.host(src).mig().migrate(pcb, dst, [&](Status s) {
    mig_status = s;
    mig_done = true;
  });

  // Room for the down verdict (~10 s), promotion, the 10 s compute, and the
  // parked write's failover retry.
  cluster.sim().run_until(cluster.sim().now() + Time::sec(120));

  ASSERT_TRUE(crash_fired) << "migration never reached kResume";
  EXPECT_TRUE(mig_done);
  EXPECT_TRUE(mig_status.is_ok()) << mig_status.to_string();
  EXPECT_TRUE(exited);
  EXPECT_EQ(exit_status, 7) << "process did not finish cleanly on the target";
  EXPECT_EQ(exit_notifications, 1) << "duplicate incarnation observed";

  // Converged: the survivor promoted and holds the post-migration bytes.
  EXPECT_TRUE(backup->is_primary());
  auto st = backup->stat_path("/migfile");
  ASSERT_TRUE(st.is_ok());
  auto bytes = backup->read_direct(st->id, 0, 16);
  ASSERT_TRUE(bytes.is_ok());
  EXPECT_EQ(std::string(bytes->begin(), bytes->end()), "before-after");

  // No process debris anywhere, and the write went through the failover
  // reopen path on the destination.
  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h) {
    if (h == primary) continue;  // still down by design
    EXPECT_EQ(cluster.host(h).mig().active_migrations(), 0u);
    EXPECT_EQ(cluster.host(h).procs().find(pid), nullptr);
  }
  EXPECT_GE(
      cluster.sim().trace().counter("fs.failover.reopens", dst).value(), 1)
      << "destination never adopted a handle at the promoted replica";
  EXPECT_EQ(cluster.sim().trace().counter("fs.cache.dirty_lost", dst).value(),
            0);
  EXPECT_EQ(cluster.sim().trace().counter("fs.cache.dirty_lost", src).value(),
            0);
}

// ---------------------------------------------------------------------------
// Load sharing: migd crash-restart, reservation clearing
// ---------------------------------------------------------------------------

TEST(FaultLoadShareTest, MigdCrashRestartRecoversEndToEnd) {
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1, .seed = 9});
  ls::Facility facility(cluster, ls::Arch::kCentral);
  const auto wss = cluster.workstations();
  const HostId migd = cluster.file_server(0).id();

  // Let a few announcement rounds populate the daemon's table.
  // Hosts only report idle after 30s without input, so run well past the
  // threshold to let post-threshold announcements populate the table.
  cluster.sim().run_until(Time::sec(60));
  ASSERT_GT(facility.daemon()->idle_unassigned(cluster.sim().now()), 0);

  auto request = [&](int n) {
    std::vector<HostId> got;
    bool done = false;
    facility.selector(wss[0]).request_hosts(n, [&](std::vector<HostId> h) {
      got = std::move(h);
      done = true;
    });
    cluster.run_until_done([&] { return done; });
    return got;
  };

  const auto first = request(2);
  ASSERT_FALSE(first.empty());

  cluster.crash_host(migd);
  cluster.sim().after(Time::sec(1),
                      [&cluster, migd] { cluster.reboot_host(migd); });
  // Announcers reopen the reinstalled pseudo-device and repopulate the
  // table; the selector's first post-crash attempt may fail and drop its
  // cached stream, so poll until a grant lands.
  std::vector<HostId> regrant;
  for (int attempt = 0; attempt < 12 && regrant.empty(); ++attempt) {
    cluster.sim().run_until(cluster.sim().now() + Time::sec(10));
    regrant = request(2);
  }
  EXPECT_FALSE(regrant.empty())
      << "no grants after migd's host crashed and rebooted";
  // The restarted daemon rebuilt its table purely from announcements.
  EXPECT_GT(facility.daemon()->stats().announcements, 0);
}

TEST(FaultLoadShareTest, ReserverCrashClearsReservation) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1, .seed = 11});
  ls::Facility facility(cluster, ls::Arch::kCentral);
  const auto wss = cluster.workstations();
  // Past the 30 s no-input threshold, so the workstations count as idle.
  cluster.sim().run_until(Time::sec(40));

  // Reserve over the wire (as real selectors do): the kReserve request also
  // teaches wss[2]'s host monitor the requester's boot epoch, which is what
  // lets it recognise the reboot below as a new incarnation.
  auto req = std::make_shared<ls::ReserveReq>();
  req->requester = wss[1];
  bool reserved = false;
  cluster.host(wss[1]).rpc().call(
      wss[2], rpc::ServiceId::kLoadShare,
      static_cast<int>(ls::LsOp::kReserve), req,
      [&](util::Result<rpc::Reply> r) {
        ASSERT_TRUE(r.is_ok() && r->status.is_ok());
        reserved = true;
      });
  cluster.run_until_done([&] { return reserved; });
  ASSERT_TRUE(facility.node(wss[2]).reserved());

  cluster.crash_host(wss[1]);
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  cluster.reboot_host(wss[1]);
  // No omniscient notification: wss[2]'s monitor must probe the reserver
  // (the reservation makes it interesting) and see the epoch jump. Give it
  // a few echo intervals.
  cluster.sim().run_until(cluster.sim().now() + Time::sec(10));

  EXPECT_FALSE(facility.node(wss[2]).reserved())
      << "reservation pinned to a crashed requester was never cleared";
  EXPECT_EQ(
      cluster.sim().trace().counter("ls.eviction.crash", wss[2]).value(), 1);
}

// ---------------------------------------------------------------------------
// Checkpoint crash sweep: a checkpointed victim's host crashes during
// {checkpoint, compaction, restart} at every observable stage. Whatever the
// timing, two invariants must hold when the cluster converges:
//   * no double incarnation — at most one live copy of the pid exists, and
//     the process either runs to correct completion or crash-exits;
//   * no lost checkpoint chain — a crash mid-capture or mid-compaction
//     never corrupts the previously committed chain (the head-rewrite
//     commit protocol), so a later restart still works or the home record
//     resolves cleanly.
// ---------------------------------------------------------------------------

using ckpt::CkptStage;

const char* ckpt_crash_point_name(CkptStage s) {
  switch (s) {
    case CkptStage::kFrozen: return "Frozen";
    case CkptStage::kFlushed: return "Flushed";
    case CkptStage::kPagesWritten: return "PagesWritten";
    case CkptStage::kMetaWritten: return "MetaWritten";
    case CkptStage::kCommitted: return "Committed";
    case CkptStage::kCompacted: return "Compacted";
    case CkptStage::kRegistered: return "Registered";
    case CkptStage::kRestartRead: return "RestartRead";
    case CkptStage::kRestartStaged: return "RestartStaged";
    case CkptStage::kRestartResumed: return "RestartResumed";
  }
  return "?";
}

using CkptMatrixParam = std::tuple<CkptStage, std::uint64_t>;

class CkptCrashMatrixTest : public ::testing::TestWithParam<CkptMatrixParam> {
};

TEST_P(CkptCrashMatrixTest, OneIncarnationAndNoLostChain) {
  const auto [crash_stage, seed] = GetParam();
  kern::Cluster::Config cfg{.num_workstations = 3, .num_file_servers = 1,
                            .seed = seed};
  cfg.costs.ckpt_chain_max = 2;  // compaction happens within the sweep
  kern::Cluster cluster(cfg);
  const auto wss = cluster.workstations();
  const HostId home = wss[0], runner = wss[1];

  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 32, true});
  for (int i = 0; i < 6; ++i)
    b.compute(Time::sec(3)).act(proc::Touch{vm::Segment::kHeap, 0, 2, true});
  b.act(proc::SysExit{7});
  ASSERT_TRUE(cluster.install_program("/bin/ckv", b.image(8, 32, 2)).is_ok());

  util::Result<Pid> spawned(Err::kAgain);
  bool spawn_done = false;
  cluster.host(home).procs().spawn("/bin/ckv", {}, [&](util::Result<Pid> r) {
    spawned = std::move(r);
    spawn_done = true;
  });
  cluster.run_until_done([&] { return spawn_done; });
  ASSERT_TRUE(spawned.is_ok());
  const Pid pid = *spawned;
  cluster.sim().run_until(cluster.sim().now() + Time::msec(500));
  {
    auto pcb = cluster.host(home).procs().find(pid);
    ASSERT_TRUE(pcb != nullptr);
    Status st(Err::kAgain);
    bool done = false;
    cluster.host(home).mig().migrate(pcb, runner, [&](Status s) {
      st = s;
      done = true;
    });
    cluster.run_until_done([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  }

  bool exited = false;
  int exit_status = -1;
  cluster.host(home).procs().notify_on_exit(pid, [&](int s) {
    exited = true;
    exit_status = s;
  });

  // Crash the host where the observed stage fires (capture stages fire on
  // the capturing host, restart stages on the restart target), then reboot
  // it so the cluster can converge either way.
  bool crash_fired = false;
  auto arm = [&](HostId h) {
    cluster.host(h).ckpt().add_stage_observer(
        [&, h](Pid p, CkptStage s) {
          if (p != pid || s != crash_stage || crash_fired) return;
          if (cluster.host_crashed(h)) return;
          crash_fired = true;
          cluster.sim().after(Time::zero(), [&cluster, h] {
            if (!cluster.host_crashed(h)) cluster.crash_host(h);
          });
          cluster.sim().after(Time::sec(2), [&cluster, h] {
            if (cluster.host_crashed(h)) cluster.reboot_host(h);
          });
        });
  };
  for (const HostId h : wss) arm(h);

  // Drive captures: one base, increments past ckpt_chain_max (forces the
  // compaction the kCompacted point needs), and — because a capture dies
  // with the crash — keep checkpointing while the process lives. Restart
  // stages fire when the home recovers the process after a crash at a
  // capture stage killed the runner... so for restart-stage sweeps, crash
  // the runner explicitly once a checkpoint is committed.
  const bool restart_stage = crash_stage >= CkptStage::kRestartRead;
  int captures_requested = 0;
  std::function<void()> drive = [&] {
    if (exited || captures_requested >= 5) return;
    ++captures_requested;
    for (const HostId h : wss) {
      if (cluster.host_crashed(h)) continue;
      if (auto pcb = cluster.host(h).procs().find(pid)) {
        cluster.host(h).ckpt().checkpoint(pcb, [](Status) {});
        break;
      }
    }
    cluster.sim().after(Time::sec(4), drive);
  };
  drive();
  if (restart_stage) {
    // Let a checkpoint commit, then kill the runner outright: recovery's
    // restore passes through the restart stages, where the observer fires.
    cluster.sim().after(Time::sec(6), [&] {
      if (!cluster.host_crashed(runner)) cluster.crash_host(runner);
      cluster.sim().after(Time::sec(2), [&] {
        if (cluster.host_crashed(runner)) cluster.reboot_host(runner);
      });
    });
  }

  cluster.sim().run_until(cluster.sim().now() + Time::sec(180));

  // Convergence: every host back up, nothing frozen, nothing half-open.
  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h) {
    EXPECT_FALSE(cluster.host_crashed(h)) << "host " << h << " still down";
    EXPECT_EQ(cluster.host(h).ckpt().active_ops(), 0u)
        << "half-open checkpoint op on host " << h;
    for (const auto& p : cluster.host(h).procs().local_processes())
      EXPECT_NE(p->state, proc::ProcState::kFrozen)
          << "pid " << p->pid << " frozen forever on host " << h;
  }
  // No double incarnation: at most one host still has a live copy, and only
  // if the process has not exited yet (it must then be unreachable — count
  // live copies directly).
  int live_copies = 0;
  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h) {
    auto p = cluster.host(h).procs().find(pid);
    if (p && p->state != proc::ProcState::kDead) ++live_copies;
  }
  EXPECT_LE(live_copies, 1) << "double incarnation";
  if (exited) {
    EXPECT_EQ(live_copies, 0);
    EXPECT_TRUE(exit_status == 7 || exit_status == proc::kHostCrashExitStatus)
        << "unexpected exit status " << exit_status;
  }
  // No lost chain: every head slot that exists must decode (in-sim file
  // rewrites are atomic at the server — only scripted torn writes garble
  // them), and the NEWEST committed head must name a fully readable chain
  // (the commit protocol's guarantee). The older slot's capture may have
  // been legitimately compacted away; a retired record may have scrubbed
  // everything.
  auto* srv = cluster.file_server(0).fs_server();
  std::int64_t newest = 0;
  for (int slot = 0; slot < ckpt::kHeadSlots; ++slot) {
    auto head_stat = srv->stat_path(ckpt::head_path(pid, slot));
    if (!head_stat.is_ok()) continue;
    auto raw = srv->read_direct(head_stat->id, 0, head_stat->size);
    ASSERT_TRUE(raw.is_ok());
    auto head = ckpt::decode_head(*raw);
    ASSERT_TRUE(head.is_ok()) << "committed head slot " << slot
                              << " does not decode";
    newest = std::max(newest, *head);
  }
  if (newest > 0) {
    auto meta_stat = srv->stat_path(ckpt::meta_path(pid, newest));
    ASSERT_TRUE(meta_stat.is_ok()) << "newest head names a missing meta";
    auto meta_raw = srv->read_direct(meta_stat->id, 0, meta_stat->size);
    ASSERT_TRUE(meta_raw.is_ok());
    auto meta = ckpt::CkptMeta::decode(*meta_raw);
    ASSERT_TRUE(meta.is_ok()) << "committed meta does not decode";
    for (const std::int64_t s : meta->chain)
      EXPECT_TRUE(srv->stat_path(ckpt::pages_path(pid, s)).is_ok())
          << "chain seq " << s << " lost its pages file";
  }
}

INSTANTIATE_TEST_SUITE_P(
    CkptMatrix, CkptCrashMatrixTest,
    ::testing::Combine(
        ::testing::Values(CkptStage::kFrozen, CkptStage::kFlushed,
                          CkptStage::kPagesWritten, CkptStage::kMetaWritten,
                          CkptStage::kCommitted, CkptStage::kCompacted,
                          CkptStage::kRestartRead, CkptStage::kRestartStaged,
                          CkptStage::kRestartResumed),
        ::testing::ValuesIn(sweep_seeds())),
    [](const ::testing::TestParamInfo<CkptMatrixParam>& info) {
      return std::string("CrashAt") +
             ckpt_crash_point_name(std::get<0>(info.param)) + "Seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sprite
