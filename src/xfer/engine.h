// The live page-transfer engine: one strategy-pluggable machine that moves
// an address space between hosts during migration. migration::Manager owns
// one Engine per host and delegates the whole VM phase to it; the paper's
// four legacy strategies are thin adapters over the same machinery, and
// three modern strategies extend it:
//
//   kIterPreCopy — multi-round pre-copy off the round-scoped vm::DirtyPlane
//                  ::kXfer plane: each round re-sends only pages dirtied
//                  during the previous round, until the dirty set stops
//                  shrinking, a round cap hits, or the remaining set fits
//                  the downtime target at the medium's bandwidth.
//   kPostCopy    — freeze immediately, ship page tables copy-on-reference
//                  style, then a background push daemon on the source
//                  drains the residual dependency without waiting for
//                  faults (pull-served pages are skipped).
//   kContentAddr — tag pages with synthetic content ids (zero-fill pages,
//                  executable text keyed by (backing_path, page index)),
//                  exchange id maps with the target's recently-seen cache,
//                  and send a short reference instead of a full page when
//                  the target can source the bytes locally.
//
// The engine owns every page of a migrating address space, from the freeze
// until the last residual page is pushed, pulled, or orphaned by a crash.
// Copy-on-reference and post-copy leave a residual dependency: the source
// keeps the frozen image (one residual entry by asid) and the target's
// faults pull from it over kXfer (one remote entry by pid). The VM phase
// creates the residual entry; commit() keeps it once the transfer
// succeeded, and until then cancel(), which every abort path calls, drops
// it. A drained post-copy push frees both ends; a crash of either peer
// frees its counterpart's entries, killing local processes that can no
// longer pull their pages.
//
// Failure semantics: the manager cancels the engine session on every
// migration-abort path; every async continuation in here revalidates its
// session (and the caller-supplied alive() hook) first, so a crash observer
// firing mid-round unwinds cleanly.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "migration/strategy.h"
#include "proc/pcb.h"
#include "rpc/rpc.h"
#include "util/status.h"
#include "vm/vm.h"
#include "xfer/content.h"
#include "xfer/wire.h"

namespace sprite::kern {
class Host;
}

namespace sprite::xfer {

// Convergence control for the pre-copy family. Rounds stop (freeze + final
// set) when pages <= stop_pages, pages no longer shrink, round hits
// max_rounds, or the set crosses the wire within downtime_target (zero:
// no bandwidth-derived bound).
struct PrecopyTuning {
  int max_rounds = 4;
  std::int64_t stop_pages = 32;
  sim::Time downtime_target = sim::Time::zero();
};

class Engine {
 public:
  // What the VM phase produced; the manager folds this into the transfer
  // request and the migration record.
  struct Result {
    vm::SpaceDescriptor desc;
    bool cor_source_resident = false;  // source retains + serves the image
    bool postcopy_push = false;        // source additionally pushes residuals
    std::int64_t pages_moved = 0;
    std::int64_t pages_flushed = 0;
    std::int64_t rounds = 0;          // pre-copy rounds before the freeze
    std::int64_t pages_deduped = 0;   // sent as references, not bytes
    std::int64_t bytes_on_wire = 0;   // all engine payloads, headers included
    std::vector<std::int64_t> round_pages;  // per-round send sizes (+ final)
  };
  using DoneFn = std::function<void(util::Result<Result>)>;

  struct Params {
    mig::VmStrategy strategy = mig::VmStrategy::kSpriteFlush;
    proc::Pid pid = proc::kInvalidPid;
    vm::SpacePtr space;
    sim::HostId target = sim::kInvalidHost;
    trace::Context ctx;  // the migration's trace, made ambient per call
    // Freezes the process and calls the continuation (the manager records
    // frozen_at and fires its kFreeze stage observers in here). The engine
    // revalidates its session after the hook returns — observers may crash
    // hosts reentrantly.
    std::function<void(std::function<void()>)> freeze;
    // True while the process may still be migrated (not exited/reaped).
    std::function<bool()> alive;
    // Fired after each non-final pre-copy round's payload lands (the
    // manager surfaces it as MigStage::kXferRound). May be null.
    std::function<void(int round, std::int64_t pages)> on_round;
  };

  explicit Engine(kern::Host& host);

  void register_services();

  // Runs the VM phase of an outgoing migration for `p.space`. Calls `done`
  // exactly once unless the session is cancelled (manager abort / crash)
  // first. Synchronous dispatch: legacy strategies replay the exact event
  // sequence the manager used to produce inline.
  void transfer(Params p, DoneFn done);

  // Drops the outgoing session for `pid` and its uncommitted residual image,
  // if any. Safe when none exists. In-flight continuations become no-ops.
  void cancel(proc::Pid pid);

  // ---- Residual dependency ----
  // Source side: the transfer RPC succeeded, so the residual image of
  // `asid` (created by the VM phase) now serves the running target and
  // survives cancel(). Post-copy starts its push daemon here.
  void commit(std::int64_t asid);
  // Target side: an incoming copy-on-reference transfer installed `space`
  // for `pid`. Its remote pages pull from `source`; with `push`, the source
  // also pushes them and the dependency ends once none are left.
  void adopt_remote(proc::Pid pid, sim::HostId source,
                    const vm::SpacePtr& space, bool push);
  // The incoming transfer was refused after adopt_remote: forget the
  // dependency and the VM's remote pager.
  void drop_remote(proc::Pid pid);

  // ---- Observation (fault-injection hooks) ----
  // kPushSent fires on the source after each background push lands —
  // pushes outlive the migration pipeline, so stage observers cannot see
  // them; crash-matrix tests hook here instead.
  enum class Event : int { kPushSent = 0, kSourceDrained, kTargetDrained };
  using Observer = std::function<void(std::int64_t asid, Event)>;
  void add_observer(Observer fn) { observers_.push_back(std::move(fn)); }

  // ---- Crash support ----
  void crash_reset();
  // Frees residual images serving `peer` and kills local processes that
  // pull pages from it (the residual-dependency cost the thesis warns
  // about), in pid order.
  void peer_crashed(sim::HostId peer);
  void collect_peer_interest(std::vector<sim::HostId>& out) const;

  // Completed-migration downtime, recorded by the manager (it owns the
  // freeze/resume timestamps).
  void record_downtime_ms(double ms);

  // Source images held for copy-on-reference and post-copy targets.
  std::size_t residual_spaces() const { return residual_.size(); }
  // Post-copy pushes owed (source) and awaited (target).
  std::size_t active_pushes() const;
  std::size_t active_incoming() const;

 private:
  struct Session {
    Params p;
    DoneFn done;
    Result res;
    PrecopyTuning tune;
    int round = 0;
    std::int64_t prev_dirty = 0;
  };
  // Source side of a residual dependency: the frozen image a target pulls
  // from (copy-on-reference) and, for post-copy, pushes drain.
  struct Residual {
    proc::Pid pid = proc::kInvalidPid;
    sim::HostId target = sim::kInvalidHost;
    vm::SpacePtr space;
    trace::Context ctx;
    bool committed = false;
    // Post-copy only: pages still owed to the target, per segment (the
    // resident set at freeze).
    bool push = false;
    std::array<std::vector<bool>, 3> owed;
    std::int64_t left = 0;
    sim::Time committed_at;
  };
  // Target side: a local process whose remote pages live on `source`.
  struct Remote {
    sim::HostId source = sim::kInvalidHost;
    vm::SpacePtr space;
    bool push = false;  // post-copy: ends when no remote page is left
  };

  // Strategy bodies. All take the session's pid and revalidate.
  void run_frozen(proc::Pid pid);    // flush/whole/cor/postcopy/content
  void precopy_round(proc::Pid pid);
  void finish_precopy(proc::Pid pid);
  void content_transfer(proc::Pid pid);
  void content_map_round(proc::Pid pid,
                         std::shared_ptr<std::vector<std::uint64_t>> ids,
                         std::size_t next);
  // Describe + release + done for strategies whose source copy is clean.
  void describe_release_done(proc::Pid pid);
  void finish_ok(proc::Pid pid);
  void finish_error(proc::Pid pid, util::Status why);

  // Sends `pages` of payload in 16-page batches, then `then`. Accounts
  // bytes/counters against the session. round -1 marks the final set.
  void send_batches(proc::Pid pid, std::int64_t pages, int round,
                    std::function<void()> then);

  void push_tick(std::int64_t asid);
  void finish_push_drained(std::int64_t asid);
  // Copy-on-reference faults, bounded to 16 pages per kPull RPC.
  void pull(sim::HostId source, std::int64_t asid, vm::Segment seg,
            std::int64_t first, std::int64_t count,
            vm::VmManager::StatusCb cb);
  // The post-copy remote entry of `pid` for `asid`, or null.
  Remote* find_pushed(proc::Pid pid, std::int64_t asid);
  // A pull or push landed on the target: end a post-copy dependency whose
  // space has no remote page left.
  void check_target_drained(proc::Pid pid, std::int64_t asid);
  void notify(std::int64_t asid, Event e);

  void handle_rpc(sim::HostId src, const rpc::Request& req,
                  std::function<void(rpc::Reply)> respond);

  PrecopyTuning tuning_for(mig::VmStrategy s) const;

  kern::Host& host_;
  sim::HostId self_;

  std::map<proc::Pid, Session> out_;
  std::map<std::int64_t, Residual> residual_;  // by asid
  std::map<proc::Pid, Remote> remote_;
  ContentCache cache_;
  std::vector<Observer> observers_;

  // xfer.* and residual-dependency (mig.cor*) metrics (trace/trace.h).
  trace::Counter* c_rounds_;
  trace::Counter* c_pages_sent_;
  trace::Counter* c_pages_resent_;
  trace::Counter* c_pages_deduped_;
  trace::Counter* c_refs_sent_;
  trace::Counter* c_pages_pushed_;
  trace::Counter* c_push_redundant_;
  trace::Counter* c_bytes_sent_;
  trace::Counter* c_drained_;
  trace::Counter* c_cor_pages_;
  trace::Counter* c_cor_kills_;
  trace::LatencyHistogram* h_downtime_ms_;
  trace::LatencyHistogram* h_round_pages_;
  trace::LatencyHistogram* h_drain_ms_;
};

}  // namespace sprite::xfer
