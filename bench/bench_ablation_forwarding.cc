// Ablation — transferred-state vs forward-everything file calls
// (thesis §4.3.1).
//
// Paper: "it would be possible to implement forwarding in a kernel-call-
// based system by leaving all of the kernel state on the home machine and
// using remote procedure calls to forward home every kernel call, as Remote
// UNIX does ... our initial plan was to use an approach like this for
// Sprite. Unfortunately, an approach based entirely on forwarding ... will
// not work in practice": every file operation pays a home round trip, and
// the home machine — whose user the facility is supposed to protect — does
// the I/O work for all its migrated processes.
//
// This benchmark runs the same remote I/O workload under both designs.
#include <cstdio>

#include "bench_util.h"
#include "migration/manager.h"
#include "proc/script.h"
#include "proc/table.h"

using sprite::core::SpriteCluster;
using sprite::mig::FileCallMode;
using sprite::proc::Action;
using sprite::proc::ScriptBuilder;
using sprite::proc::ScriptProgram;
using sprite::sim::Time;
using sprite::util::Table;

namespace {

namespace fs = sprite::fs;

fs::Bytes bytes(const std::string& s) { return fs::Bytes(s.begin(), s.end()); }

struct ModeResult {
  double workload_s = 0;      // remote process's elapsed time
  double home_cpu_s = 0;      // kernel CPU burned on the home machine
  std::int64_t home_rpcs = 0; // requests the home machine served
};

// `workers` processes from the same home, each migrated to its own host,
// each doing 200 reads + 100 writes of 4 KB.
ModeResult run_mode(FileCallMode mode, int workers) {
  SpriteCluster cluster({.workstations = workers + 1, .seed = 111});
  for (int i = 0; i <= workers; ++i)
    cluster.host(cluster.workstation(i)).mig().set_file_call_mode(mode);
  auto* server = cluster.kernel().file_server().fs_server();
  server->create_file("/shared_src", 1 << 20);

  ScriptBuilder b;
  b.act(sprite::proc::SysOpen{"/shared_src", fs::OpenFlags::read_only()});
  b.step([](ScriptProgram::Ctx& c) {
    c.locals["in"] = c.view->rv;
    return sprite::proc::SysOpen{"/out" + std::to_string(c.view->pid),
                                 fs::OpenFlags::create_rw()};
  });
  b.step([](ScriptProgram::Ctx& c) {
    c.locals["out"] = c.view->rv;
    return sprite::proc::Pause{Time::msec(500)};  // migration point
  });
  const int head = b.next_index();
  b.step([head](ScriptProgram::Ctx& c) {
    const auto i = c.locals["i"]++;
    if (i >= 300) return Action{sprite::proc::SysExit{0}};
    c.jump(head);
    if (i % 3 == 2) {
      return Action{sprite::proc::SysWrite{static_cast<int>(c.locals["out"]),
                                           bytes(std::string(4096, 'x')), 0}};
    }
    return Action{sprite::proc::SysRead{static_cast<int>(c.locals["in"]),
                                        4096}};
  });
  cluster.install_program("/bin/io", b.image());

  const auto home = cluster.workstation(0);
  std::vector<sprite::proc::Pid> pids;
  for (int w = 0; w < workers; ++w)
    pids.push_back(cluster.spawn(home, "/bin/io", {}));
  cluster.run_for(Time::msec(200));
  for (int w = 0; w < workers; ++w) {
    auto st = cluster.migrate(pids[static_cast<std::size_t>(w)],
                              cluster.workstation(w + 1));
    SPRITE_CHECK(st.is_ok());
  }

  const Time t0 = cluster.sim().now();
  auto served = [&] {
    return cluster.sim().trace().counter_value("rpc.request.served", home);
  };
  const auto rpcs0 = served();
  const Time cpu0 = cluster.host(home).cpu().busy_time(sprite::sim::JobClass::kKernel);
  for (auto pid : pids) SPRITE_CHECK(cluster.wait(pid) == 0);

  ModeResult r;
  r.workload_s = (cluster.sim().now() - t0).s();
  r.home_cpu_s =
      (cluster.host(home).cpu().busy_time(sprite::sim::JobClass::kKernel) -
       cpu0)
          .s();
  r.home_rpcs = served() - rpcs0;
  return r;
}

}  // namespace

int main() {
  bench::header(
      "Ablation: transferred state vs forward-everything (bench_ablation_forwarding)",
      "forwarding every file call home 'will not work in practice': per-op "
      "round trips plus home-machine load defeat the facility's purpose");

  Table t({"mode", "remote workers", "workload s", "home kernel CPU s",
           "RPCs served at home"});
  for (int workers : {1, 4}) {
    auto fwd = run_mode(FileCallMode::kForwardHome, workers);
    auto xfer = run_mode(FileCallMode::kTransferStreams, workers);
    t.add_row({"forward home (Remote UNIX)", std::to_string(workers),
               Table::num(fwd.workload_s, 2), Table::num(fwd.home_cpu_s, 2),
               std::to_string(fwd.home_rpcs)});
    t.add_row({"transferred state (Sprite)", std::to_string(workers),
               Table::num(xfer.workload_s, 2), Table::num(xfer.home_cpu_s, 2),
               std::to_string(xfer.home_rpcs)});
  }
  t.print();

  bench::footnote(
      "Shape checks: forwarding pays one home round trip per file call, so\n"
      "the remote workload runs several times slower and the home machine —\n"
      "the one the user is sitting at — serves hundreds of RPCs and burns\n"
      "CPU on its guests' I/O. Transferred state leaves the home machine\n"
      "untouched. This is why Sprite migrates kernel state and forwards\n"
      "only the calls that truly belong at home (Appendix A).");
  return 0;
}
