// Process control block.
//
// A PCB is two parts. PcbRecord, its base, is the process state that
// crosses hosts: migration ships it in mig::TransferReq and a checkpoint
// stores it in ckpt::CkptMeta. It is declared once, with its one codec, so
// the process module owns its encapsulation as each Sprite kernel module
// does, and capture and install are plain copies of the base. The rest of
// Pcb stays on its host: the scheduler's handles, in-flight kernel-call
// state, and the program, address space and streams, which their own
// modules move.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fs/client.h"
#include "proc/program.h"
#include "sim/cpu.h"
#include "sim/ids.h"
#include "sim/time.h"
#include "util/codec.h"
#include "vm/vm.h"

namespace sprite::proc {

enum class ProcState : int {
  kRunnable,   // dispatching or executing an action
  kBlocked,    // waiting for a kernel call / page fault / wait() to finish
  kFrozen,     // suspended for migration (no actions dispatched)
  kZombie,     // exited; home record holds the status until reaped
  kDead,       // fully gone
};

const char* proc_state_name(ProcState s);

struct PcbRecord {
  Pid pid = kInvalidPid;
  Pid ppid = kInvalidPid;
  sim::HostId home = sim::kInvalidHost;
  // Incarnation epoch under the home's pid authority. Bumped by the home
  // when it restarts the process from a checkpoint; a copy carrying an
  // older epoch (a late-thawing migration, a partitioned survivor) is
  // stale and must die rather than run alongside the restarted one.
  std::int64_t incarnation = 0;

  // Executable identity (exec-time migration re-creates the image from it).
  std::string exe_path;
  std::vector<std::string> args;
  // The last action's results, read by the program's next step.
  ProcessView view;
  int next_fd = 3;  // 0-2 notionally reserved

  sim::Time remaining_compute;  // carried across preemption / migration
  // Blocking detail: how the process thaws on the other host.
  sim::Time pause_remaining;     // re-armed on the target host
  bool blocked_in_wait = false;  // parked until a WaitNotify arrives
  // Signals.
  bool kill_pending = false;
  int kill_sig = 0;
  // When the process was created (age drives long-running heuristics).
  sim::Time spawned_at;

  // Every field above in order (util/codec.h); the view's pid and ppid are
  // not stored, since they always equal pid and ppid.
  void encode(util::Encoder& e) const;
  static PcbRecord decode(util::Decoder& d);
};

struct Pcb : PcbRecord {
  sim::HostId current = sim::kInvalidHost;
  ProcState state = ProcState::kRunnable;

  // The "registers + user memory": the running program. Moved wholesale by
  // migration.
  std::unique_ptr<Program> program;

  vm::SpacePtr space;

  // Open streams by descriptor.
  std::map<int, fs::StreamPtr> fds;

  bool foreign() const { return home != current; }
  PcbRecord& record() { return *this; }
  const PcbRecord& record() const { return *this; }

  // ---- Scheduling ----
  sim::CpuJobId cpu_job = sim::kInvalidCpuJob;  // nonzero while computing

  // ---- Blocking detail (migration must know how to thaw the process) ----
  bool paused = false;            // sleeping in Pause
  sim::EventHandle pause_event;   // cancelled if frozen mid-sleep
  sim::Time pause_deadline;       // when the sleep would have ended
  // Inside the migrate-self kernel call: the process is at a safe point and
  // the call "returns" on the target host.
  bool migrate_syscall_pending = false;

  // Remote-UNIX-style comparator: when true, a remote (migrated) process's
  // file kernel calls are forwarded to its home machine instead of running
  // against transferred stream state. Streams stay home. Used by the
  // forwarding-vs-transfer ablation (thesis §4.3.1).
  bool forward_file_calls = false;

  // ---- Migration ----
  // Deferred migration armed by migrate-self without a started transfer
  // (pmake's remote exec: migrate at the coming exec).
  bool migrate_on_exec = false;
  sim::HostId migrate_target = sim::kInvalidHost;
  // A freeze was requested while the process was mid-action; the dispatcher
  // honours it at the next action boundary.
  std::function<void()> freeze_waiter;
};

using PcbPtr = std::shared_ptr<Pcb>;

}  // namespace sprite::proc
