// strategy_tour: the virtual-memory transfer design space (thesis §4.2.1).
//
// Migrates the same 4 MB-dirty process under each of the four strategies and
// prints what each one trades: freeze time, total time, bytes moved, and
// residual dependencies.
//
//   ./example_strategy_tour
#include <cstdio>

#include "core/sprite.h"
#include "util/table.h"

using sprite::core::SpriteCluster;
using sprite::mig::VmStrategy;
using sprite::proc::ScriptBuilder;
using sprite::sim::Time;

int main() {
  sprite::util::Table table({"strategy", "freeze ms", "total ms", "pages wired",
                             "pages flushed", "residual deps"});

  for (VmStrategy strategy :
       {VmStrategy::kSpriteFlush, VmStrategy::kWholeCopy, VmStrategy::kPreCopy,
        VmStrategy::kCopyOnRef}) {
    SpriteCluster cluster({.workstations = 3, .seed = 3});
    // Dirty 4 MB of heap, then keep computing (so pre-copy has something to
    // chase), with pauses at which migration can freeze cleanly.
    ScriptBuilder b;
    b.act(sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, 1024, true});
    for (int i = 0; i < 200; ++i) {
      b.act(sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, 32, true})
          .compute(Time::msec(100));
    }
    b.exit(0);
    cluster.install_program("/bin/dirty", b.image(16, 1024, 4));

    const auto src = cluster.workstation(0);
    const auto dst = cluster.workstation(1);
    cluster.host(src).mig().set_strategy(strategy);

    auto pid = cluster.spawn(src, "/bin/dirty", {});
    cluster.run_for(Time::sec(3));  // working set is dirty now
    auto st = cluster.migrate(pid, dst);
    if (!st.is_ok()) {
      std::printf("%s: migration failed: %s\n",
                  sprite::mig::strategy_name(strategy),
                  st.to_string().c_str());
      continue;
    }
    const auto rec = cluster.host(src).mig().last_record();
    // Touch everything on the target so copy-on-reference pulls its pages.
    cluster.run_for(Time::sec(5));

    const std::size_t residual =
        cluster.host(src).mig().xfer().residual_spaces();
    table.add_row({sprite::mig::strategy_name(strategy),
                   sprite::util::Table::num(rec.freeze_time().ms(), 1),
                   sprite::util::Table::num(rec.total_time().ms(), 1),
                   std::to_string(rec.pages_moved),
                   std::to_string(rec.pages_flushed),
                   std::to_string(residual)});

    cluster.wait(pid);
  }

  std::printf("migrating a process with a 4 MB dirty heap, by strategy:\n\n");
  table.print();
  std::printf(
      "\nwhole-copy freezes the process for the whole image; pre-copy\n"
      "shrinks the freeze by copying while running (at the cost of resent\n"
      "pages); copy-on-reference resumes almost instantly but leaves the\n"
      "source serving pages for the process's lifetime; Sprite's flush\n"
      "pays the file server once and leaves no dependency on the source.\n");
  return 0;
}
