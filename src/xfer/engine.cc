#include "xfer/engine.h"

#include <algorithm>

#include "kern/cluster.h"
#include "proc/table.h"
#include "util/assert.h"
#include "util/log.h"

namespace sprite::xfer {

using mig::VmStrategy;
using proc::Pid;
using rpc::Reply;
using rpc::Request;
using rpc::ServiceId;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Status;

namespace {
std::int64_t space_remote_pages(const vm::SpacePtr& space) {
  std::int64_t n = 0;
  for (auto seg : vm::kAllSegments) n += space->segment(seg).remote_pages();
  return n;
}
}  // namespace

Engine::Engine(kern::Host& host)
    : host_(host),
      self_(host.id()),
      cache_(static_cast<std::size_t>(
          host.cluster().costs().xfer_content_cache_entries)) {
  trace::Registry& tr = host_.cluster().sim().trace();
  c_rounds_ = &tr.counter("xfer.round.completed", self_);
  c_pages_sent_ = &tr.counter("xfer.page.sent", self_);
  c_pages_resent_ = &tr.counter("xfer.page.resent", self_);
  c_pages_deduped_ = &tr.counter("xfer.page.deduped", self_);
  c_refs_sent_ = &tr.counter("xfer.ref.sent", self_);
  c_pages_pushed_ = &tr.counter("xfer.page.pushed", self_);
  c_push_redundant_ = &tr.counter("xfer.push.redundant", self_);
  c_bytes_sent_ = &tr.counter("xfer.bytes.sent", self_);
  c_drained_ = &tr.counter("xfer.postcopy.drained", self_);
  c_cor_pages_ = &tr.counter("mig.cor_page.served", self_);
  c_cor_kills_ = &tr.counter("mig.cor.killed_source_crash", self_);
  h_downtime_ms_ = &tr.histogram("xfer.migration.downtime_ms",
                                 trace::default_latency_bounds_ms(), self_);
  h_round_pages_ = &tr.histogram("xfer.round.pages",
                                 trace::default_latency_bounds_ms(), self_);
  h_drain_ms_ = &tr.histogram("xfer.postcopy.drain_ms",
                              trace::default_latency_bounds_ms(), self_);
}

void Engine::register_services() {
  host_.rpc().register_service(
      ServiceId::kXfer,
      [this](HostId src, const Request& req, std::function<void(Reply)> r) {
        handle_rpc(src, req, std::move(r));
      });
}

void Engine::record_downtime_ms(double ms) { h_downtime_ms_->record(ms); }

PrecopyTuning Engine::tuning_for(VmStrategy s) const {
  if (s == VmStrategy::kPreCopy)
    return PrecopyTuning{4, 32, Time::zero()};  // the paper's fixed tuning
  const sim::Costs& c = host_.cluster().costs();
  return PrecopyTuning{c.xfer_max_rounds, c.xfer_stop_pages,
                       c.xfer_downtime_target};
}

void Engine::notify(std::int64_t asid, Event e) {
  if (observers_.empty()) return;
  // Copy: an observer may crash hosts and mutate these lists reentrantly.
  auto obs = observers_;
  for (auto& fn : obs) fn(asid, e);
}

// ---------------------------------------------------------------------------
// Outgoing sessions
// ---------------------------------------------------------------------------

void Engine::transfer(Params p, DoneFn done) {
  const Pid pid = p.pid;
  SPRITE_CHECK(p.space != nullptr);
  SPRITE_CHECK(out_.find(pid) == out_.end());
  Session s;
  s.p = std::move(p);
  s.done = std::move(done);
  s.tune = tuning_for(s.p.strategy);
  s.prev_dirty = INT64_MAX;
  auto [it, inserted] = out_.emplace(pid, std::move(s));
  SPRITE_CHECK(inserted);

  host_.cluster().sim().trace().flight_note(
      "xfer.start", mig::strategy_name(it->second.p.strategy), self_,
      static_cast<std::int64_t>(pid), it->second.p.target);

  switch (it->second.p.strategy) {
    case VmStrategy::kPreCopy:
    case VmStrategy::kIterPreCopy:
      // Rounds run while the process keeps executing; the freeze comes at
      // convergence.
      precopy_round(pid);
      return;
    default:
      it->second.p.freeze([this, pid] { run_frozen(pid); });
      return;
  }
}

void Engine::cancel(Pid pid) {
  out_.erase(pid);
  // An uncommitted residual image belongs to a migration that failed before
  // its transfer completed; no target ever ran on it.
  std::erase_if(residual_, [pid](const auto& e) {
    return e.second.pid == pid && !e.second.committed;
  });
}

void Engine::finish_error(Pid pid, Status why) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  DoneFn done = std::move(it->second.done);
  out_.erase(it);
  done(why);
}

void Engine::finish_ok(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  DoneFn done = std::move(it->second.done);
  Result res = std::move(it->second.res);
  out_.erase(it);
  done(std::move(res));
}

void Engine::describe_release_done(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  vm::SpacePtr space = s.p.space;
  s.res.desc = host_.vm().describe(space);
  host_.vm().release_space(space, [this, pid](Status) { finish_ok(pid); });
}

void Engine::send_batches(Pid pid, std::int64_t pages, int round,
                          std::function<void()> then) {
  if (pages <= 0) {
    host_.cluster().sim().after(Time::zero(), std::move(then));
    return;
  }
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  const std::int64_t chunk = std::min<std::int64_t>(pages, 16);  // 64 KB
  auto body = std::make_shared<PageBatchReq>();
  body->pid = pid;
  body->round = round;
  body->pages = chunk;
  body->bytes = chunk * host_.cluster().costs().page_size;
  s.res.bytes_on_wire += body->wire_bytes();
  c_bytes_sent_->inc(body->wire_bytes());
  c_pages_sent_->inc(chunk);
  if (round != 0) c_pages_resent_->inc(chunk);
  trace::ScopedContext scope(host_.cluster().sim().trace(), s.p.ctx);
  host_.rpc().call(
      s.p.target, ServiceId::kXfer, static_cast<int>(XferOp::kPageBatch),
      body,
      [this, pid, pages, chunk, round,
       then = std::move(then)](util::Result<Reply> r) mutable {
        auto it = out_.find(pid);
        if (it == out_.end()) return;
        if (!r.is_ok() || !r->status.is_ok())
          return finish_error(pid, r.is_ok() ? r->status : r.status());
        send_batches(pid, pages - chunk, round, std::move(then));
      });
}

// ---- Pre-copy family ----

void Engine::precopy_round(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  // The process keeps executing during the rounds; it may exit under us.
  if (!s.p.alive() || !s.p.space)
    return finish_error(pid,
                        Status(Err::kSrch, "process exited during pre-copy"));
  vm::SpacePtr space = s.p.space;

  std::int64_t pages = 0;
  for (auto seg : vm::kAllSegments)
    pages += s.round == 0 ? space->segment(seg).resident_pages()
                          : space->segment(seg).xfer_dirty_pages();

  // Converged (or stopped converging): freeze and send the final set. The
  // downtime-target rule lifts the page floor to however many pages cross
  // the wire within the target at the medium's bandwidth.
  std::int64_t stop_pages = s.tune.stop_pages;
  if (s.tune.downtime_target > Time::zero()) {
    const sim::Costs& c = host_.cluster().costs();
    const auto bound = static_cast<std::int64_t>(
        s.tune.downtime_target.s() * c.net_bytes_per_sec /
        static_cast<double>(c.page_size));
    stop_pages = std::max(stop_pages, bound);
  }
  const bool stop =
      s.round > 0 && (pages <= stop_pages || s.round >= s.tune.max_rounds ||
                      pages >= s.prev_dirty);
  if (stop) {
    s.p.freeze([this, pid] { finish_precopy(pid); });
    return;
  }

  // Copy this round's pages while the process keeps running; it re-dirties
  // some of them and the next round picks exactly those up off the
  // round-scoped plane. The flush plane is cleared in lockstep: these pages
  // cross the wire, so the target's copy arrives resident and clean.
  for (auto seg : vm::kAllSegments) {
    auto& st = space->segment(seg);
    st.planes.clear(vm::DirtyPlane::kXfer);
    st.planes.clear(vm::DirtyPlane::kFlush);
  }
  s.res.pages_moved += pages;
  s.res.rounds += 1;
  s.res.round_pages.push_back(pages);
  s.prev_dirty = pages == 0 ? 1 : pages;
  const int round = s.round++;
  c_rounds_->inc();
  h_round_pages_->record(static_cast<double>(pages));
  send_batches(pid, pages, round, [this, pid, round, pages] {
    auto it = out_.find(pid);
    if (it == out_.end()) return;
    if (it->second.p.on_round) {
      it->second.p.on_round(round, pages);
      if (out_.find(pid) == out_.end()) return;  // observer crashed us
    }
    precopy_round(pid);
  });
}

void Engine::finish_precopy(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  if (!s.p.alive() || !s.p.space)
    return finish_error(pid,
                        Status(Err::kSrch, "process exited during pre-copy"));
  vm::SpacePtr space = s.p.space;
  std::int64_t final_pages = 0;
  for (auto seg : vm::kAllSegments) {
    final_pages += space->segment(seg).xfer_dirty_pages();
    auto& st = space->segment(seg);
    st.planes.clear(vm::DirtyPlane::kXfer);
    st.planes.clear(vm::DirtyPlane::kFlush);
  }
  s.res.pages_moved += final_pages;
  s.res.round_pages.push_back(final_pages);
  h_round_pages_->record(static_cast<double>(final_pages));
  send_batches(pid, final_pages, /*round=*/-1,
               [this, pid] { describe_release_done(pid); });
}

// ---- Freeze-first strategies ----

void Engine::run_frozen(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  if (!s.p.alive() || !s.p.space)
    return finish_error(pid,
                        Status(Err::kSrch, "process exited before transfer"));
  vm::SpacePtr space = s.p.space;

  switch (s.p.strategy) {
    case VmStrategy::kSpriteFlush: {
      s.res.pages_flushed = space->dirty_pages();
      host_.vm().flush_dirty(space, [this, pid, space](Status st) {
        if (!st.is_ok()) return finish_error(pid, st);
        auto it = out_.find(pid);
        if (it == out_.end()) return;
        // Nothing is shipped: the target demand-pages from the server.
        host_.vm().invalidate(space);
        describe_release_done(pid);
      });
      return;
    }
    case VmStrategy::kWholeCopy: {
      const std::int64_t pages = space->resident_pages();
      s.res.pages_moved = pages;
      s.res.round_pages.push_back(pages);
      send_batches(pid, pages, /*round=*/0, [this, pid, space] {
        if (out_.find(pid) == out_.end()) return;
        // Pages crossed the wire; the target's copy is resident and clean.
        for (auto seg : vm::kAllSegments)
          space->segment(seg).planes.clear(vm::DirtyPlane::kFlush);
        describe_release_done(pid);
      });
      return;
    }
    case VmStrategy::kContentAddr: {
      content_transfer(pid);
      return;
    }
    case VmStrategy::kCopyOnRef:
    case VmStrategy::kPostCopy: {
      // Ship only page tables; previously-resident pages become remote on
      // the target, and the source keeps the image to serve pulls (the
      // residual dependency). Post-copy additionally owes the target the
      // frozen resident set, pushed once the transfer commits.
      vm::SpaceDescriptor desc = host_.vm().describe(space);
      for (auto& seg : desc.segments) {
        seg.in_remote = seg.resident;
        seg.resident.assign(seg.resident.size(), false);
        seg.dirty.assign(seg.dirty.size(), false);
      }
      s.res.desc = std::move(desc);
      s.res.cor_source_resident = true;
      Residual r;
      r.pid = pid;
      r.target = s.p.target;
      r.space = space;
      r.ctx = s.p.ctx;
      if (s.p.strategy == VmStrategy::kPostCopy) {
        s.res.postcopy_push = true;
        r.push = true;
        for (auto seg : vm::kAllSegments) {
          const auto& st = space->segment(seg);
          r.owed[static_cast<std::size_t>(seg)] = st.resident;
          r.left += st.resident_pages();
        }
      }
      residual_[space->asid()] = std::move(r);
      finish_ok(pid);
      return;
    }
    case VmStrategy::kPreCopy:
    case VmStrategy::kIterPreCopy:
      break;  // handled by precopy_round
  }
  SPRITE_UNREACHABLE("unknown transfer strategy");
}

// ---- Content-addressed transfer ----

void Engine::content_transfer(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  vm::SpacePtr space = s.p.space;

  // Partition the frozen resident set: shareable pages (program text, the
  // zero page) go through the id map exchange; written anonymous pages have
  // unique bytes and ship in full.
  auto ids = std::make_shared<std::vector<std::uint64_t>>();
  std::int64_t unique = 0;
  for (auto seg : vm::kAllSegments) {
    const vm::SegmentState& st = space->segment(seg);
    for (std::int64_t p = 0; p < st.pages; ++p) {
      if (!st.resident[static_cast<std::size_t>(p)]) continue;
      const vm::PageContentId cid = vm::page_content_id(st, p);
      if (cid.shareable)
        ids->push_back(cid.id);
      else
        ++unique;
    }
  }
  s.res.round_pages.push_back(unique +
                              static_cast<std::int64_t>(ids->size()));
  send_batches(pid, unique, /*round=*/0, [this, pid, ids] {
    content_map_round(pid, ids, 0);
  });
}

void Engine::content_map_round(
    Pid pid, std::shared_ptr<std::vector<std::uint64_t>> ids,
    std::size_t next) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  if (next >= ids->size()) {
    // Everything accounted for; the target's copy is resident and clean.
    vm::SpacePtr space = s.p.space;
    s.res.pages_moved = s.res.round_pages.empty() ? 0 : s.res.round_pages[0];
    for (auto seg : vm::kAllSegments)
      space->segment(seg).planes.clear(vm::DirtyPlane::kFlush);
    describe_release_done(pid);
    return;
  }
  const sim::Costs& costs = host_.cluster().costs();
  const std::size_t batch = std::min<std::size_t>(
      ids->size() - next, static_cast<std::size_t>(costs.xfer_map_batch_pages));
  auto body = std::make_shared<MapReq>();
  body->pid = pid;
  body->asid = s.p.space->asid();
  body->ref_bytes = costs.xfer_ref_bytes;
  body->ids.assign(ids->begin() + static_cast<std::ptrdiff_t>(next),
                   ids->begin() + static_cast<std::ptrdiff_t>(next + batch));
  s.res.bytes_on_wire += body->wire_bytes();
  c_bytes_sent_->inc(body->wire_bytes());
  c_refs_sent_->inc(static_cast<std::int64_t>(batch));
  trace::ScopedContext scope(host_.cluster().sim().trace(), s.p.ctx);
  host_.rpc().call(
      s.p.target, ServiceId::kXfer, static_cast<int>(XferOp::kMap), body,
      [this, pid, ids, next, batch](util::Result<Reply> r) mutable {
        auto it = out_.find(pid);
        if (it == out_.end()) return;
        if (!r.is_ok() || !r->status.is_ok())
          return finish_error(pid, r.is_ok() ? r->status : r.status());
        auto rep = rpc::body_cast<MapRep>(r->body);
        SPRITE_CHECK(rep != nullptr && rep->need.size() == batch);
        const auto needed = static_cast<std::int64_t>(
            std::count(rep->need.begin(), rep->need.end(), true));
        const auto hits = static_cast<std::int64_t>(batch) - needed;
        it->second.res.pages_deduped += hits;
        c_pages_deduped_->inc(hits);
        send_batches(pid, needed, /*round=*/0, [this, pid, ids, next, batch] {
          content_map_round(pid, ids, next + batch);
        });
      });
}

// ---------------------------------------------------------------------------
// Residual dependency, source side: commit, post-copy push, served pulls
// ---------------------------------------------------------------------------

void Engine::commit(std::int64_t asid) {
  auto it = residual_.find(asid);
  if (it == residual_.end() || it->second.committed) return;
  Residual& r = it->second;
  r.committed = true;
  if (!r.push) return;
  r.committed_at = host_.cluster().sim().now();
  host_.cluster().sim().trace().flight_note(
      "xfer.push", "begin", self_, static_cast<std::int64_t>(r.pid), r.left);
  if (r.left == 0) return finish_push_drained(asid);
  host_.cluster().sim().after(host_.cluster().costs().xfer_push_interval,
                              [this, asid] { push_tick(asid); });
}

void Engine::push_tick(std::int64_t asid) {
  auto it = residual_.find(asid);
  if (it == residual_.end() || !it->second.push) return;
  Residual& push = it->second;
  if (push.left == 0) return finish_push_drained(asid);

  // Next owed run, bounded to one segment and the push batch size.
  const std::int64_t max_pages = host_.cluster().costs().xfer_push_pages;
  vm::Segment run_seg = vm::Segment::kHeap;
  std::int64_t first = -1, count = 0;
  for (auto seg : vm::kAllSegments) {
    const auto& owed = push.owed[static_cast<std::size_t>(seg)];
    for (std::size_t p = 0; p < owed.size(); ++p) {
      if (!owed[p]) {
        if (first >= 0) break;
        continue;
      }
      if (first < 0) {
        run_seg = seg;
        first = static_cast<std::int64_t>(p);
      }
      if (++count >= max_pages) break;
    }
    if (first >= 0) break;
  }
  if (first < 0) return finish_push_drained(asid);

  auto body = std::make_shared<PushReq>();
  body->pid = push.pid;
  body->asid = asid;
  body->seg = run_seg;
  body->first = first;
  body->count = count;
  body->bytes = count * host_.cluster().costs().page_size;
  c_bytes_sent_->inc(body->wire_bytes());
  trace::ScopedContext scope(host_.cluster().sim().trace(), push.ctx);
  host_.rpc().call(
      push.target, ServiceId::kXfer, static_cast<int>(XferOp::kPush), body,
      [this, asid, run_seg, first, count](util::Result<Reply> r) {
        auto it = residual_.find(asid);
        if (it == residual_.end() || !it->second.push) return;
        if (!r.is_ok() || !r->status.is_ok()) {
          // Target unreachable or mid-reboot: retry next interval; a down
          // verdict tears the session down via peer_crashed.
          host_.cluster().sim().after(
              host_.cluster().costs().xfer_push_interval,
              [this, asid] { push_tick(asid); });
          return;
        }
        Residual& push = it->second;
        auto& owed = push.owed[static_cast<std::size_t>(run_seg)];
        std::int64_t sent = 0;
        for (std::int64_t p = first; p < first + count; ++p) {
          if (!owed[static_cast<std::size_t>(p)]) continue;
          owed[static_cast<std::size_t>(p)] = false;
          ++sent;
        }
        push.left -= sent;
        c_pages_pushed_->inc(sent);
        auto rep = rpc::body_cast<PushRep>(r->body);
        if (rep != nullptr && rep->applied < sent)
          c_push_redundant_->inc(sent - rep->applied);
        notify(asid, Event::kPushSent);
        it = residual_.find(asid);  // an observer may have crashed hosts
        if (it == residual_.end() || !it->second.push) return;
        if (it->second.left == 0) return finish_push_drained(asid);
        host_.cluster().sim().after(
            host_.cluster().costs().xfer_push_interval,
            [this, asid] { push_tick(asid); });
      });
}

void Engine::finish_push_drained(std::int64_t asid) {
  auto it = residual_.find(asid);
  if (it == residual_.end()) return;
  const Pid pid = it->second.pid;
  h_drain_ms_->record(
      (host_.cluster().sim().now() - it->second.committed_at).ms());
  residual_.erase(it);
  c_drained_->inc();
  host_.cluster().sim().trace().flight_note(
      "xfer.push", "drained", self_, static_cast<std::int64_t>(pid), asid);
  notify(asid, Event::kSourceDrained);
}

// ---------------------------------------------------------------------------
// Residual dependency, target side: pulls on fault, post-copy drain
// ---------------------------------------------------------------------------

void Engine::adopt_remote(Pid pid, HostId source, const vm::SpacePtr& space,
                          bool push) {
  // Faults on previously-resident pages pull from the source, at most 16
  // pages (64 KB) per RPC — larger replies would monopolize the wire and
  // outlive the RPC retransmission timeout.
  const std::int64_t asid = space->asid();
  host_.vm().set_remote_pager(
      space, [this, pid, source, asid, push](vm::Segment seg,
                                             std::int64_t first,
                                             std::int64_t count,
                                             vm::VmManager::StatusCb cb) {
        pull(source, asid, seg, first, count,
             [this, pid, asid, push, cb = std::move(cb)](Status s) {
               cb(s);  // marks the pages resident
               // The last residual page can arrive by fault rather than
               // push; re-check the drain.
               if (push && s.is_ok()) check_target_drained(pid, asid);
             });
      });
  remote_[pid] = Remote{source, space, push};
}

void Engine::drop_remote(Pid pid) {
  auto it = remote_.find(pid);
  if (it == remote_.end()) return;
  host_.vm().clear_remote_pager(it->second.space->asid());
  remote_.erase(it);
}

void Engine::pull(HostId source, std::int64_t asid, vm::Segment seg,
                  std::int64_t first, std::int64_t count,
                  vm::VmManager::StatusCb cb) {
  if (count <= 0) return cb(Status::ok());
  const std::int64_t chunk = std::min<std::int64_t>(count, 16);
  auto body = std::make_shared<PullReq>();
  body->asid = asid;
  body->seg = seg;
  body->first = first;
  body->count = chunk;
  host_.rpc().call(
      source, ServiceId::kXfer, static_cast<int>(XferOp::kPull), body,
      [this, source, asid, seg, first, count, chunk,
       cb = std::move(cb)](util::Result<Reply> r) mutable {
        if (!r.is_ok()) return cb(r.status());
        if (!r->status.is_ok()) return cb(r->status);
        pull(source, asid, seg, first + chunk, count - chunk, std::move(cb));
      });
}

Engine::Remote* Engine::find_pushed(Pid pid, std::int64_t asid) {
  auto it = remote_.find(pid);
  if (it == remote_.end() || !it->second.push ||
      it->second.space->asid() != asid)
    return nullptr;
  return &it->second;
}

void Engine::check_target_drained(Pid pid, std::int64_t asid) {
  Remote* r = find_pushed(pid, asid);
  if (r == nullptr || space_remote_pages(r->space) > 0) return;
  remote_.erase(pid);
  host_.vm().clear_remote_pager(asid);
  host_.cluster().sim().trace().flight_note(
      "xfer.push", "target_drained", self_, static_cast<std::int64_t>(pid),
      asid);
  // The residual dependency is gone: a later source crash must no longer
  // kill this process.
  notify(asid, Event::kTargetDrained);
}

// ---------------------------------------------------------------------------
// Crash support
// ---------------------------------------------------------------------------

void Engine::crash_reset() {
  out_.clear();   // no callbacks: their closures died with the kernel
  residual_.clear();
  remote_.clear();
  cache_.clear();  // kernel soft state
}

void Engine::peer_crashed(HostId peer) {
  // Residual images serving the dead target are unreachable; free them.
  std::erase_if(residual_,
                [peer](const auto& e) { return e.second.target == peer; });
  // Processes here that pull pages from the dead source can never fault
  // another page in: kill them (the residual-dependency hazard that made
  // Sprite prefer flushing over copy-on-reference).
  std::vector<Pid> stranded;
  for (const auto& [pid, r] : remote_)
    if (r.source == peer) stranded.push_back(pid);
  for (const Pid pid : stranded) {
    remote_.erase(pid);
    if (!host_.procs().find(pid)) continue;
    c_cor_kills_->inc();
    if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
      tr.instant("mig", "killed: cor source crashed", self_,
                 static_cast<std::int64_t>(pid));
    host_.procs().deliver_signal(pid, 9);
  }
}

void Engine::collect_peer_interest(std::vector<HostId>& out) const {
  for (const auto& [asid, r] : residual_) out.push_back(r.target);
  for (const auto& [pid, r] : remote_) out.push_back(r.source);
}

std::size_t Engine::active_pushes() const {
  return static_cast<std::size_t>(std::count_if(
      residual_.begin(), residual_.end(),
      [](const auto& e) { return e.second.push; }));
}

std::size_t Engine::active_incoming() const {
  return static_cast<std::size_t>(
      std::count_if(remote_.begin(), remote_.end(),
                    [](const auto& e) { return e.second.push; }));
}

// ---------------------------------------------------------------------------
// Incoming RPCs
// ---------------------------------------------------------------------------

void Engine::handle_rpc(HostId src, const Request& req,
                        std::function<void(Reply)> respond) {
  switch (static_cast<XferOp>(req.op)) {
    case XferOp::kPageBatch: {
      // The payload's wire time is the cost; nothing to store.
      respond(Reply{Status::ok(), nullptr});
      return;
    }
    case XferOp::kMap: {
      auto body = rpc::body_cast<MapReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      auto rep = std::make_shared<MapRep>();
      rep->need.reserve(body->ids.size());
      for (const std::uint64_t id : body->ids) {
        const bool have = cache_.touch(id);
        rep->need.push_back(!have);
        cache_.insert(id);  // the full page follows when we lacked it
      }
      respond(Reply{Status::ok(), rep});
      return;
    }
    case XferOp::kPush: {
      auto body = rpc::body_cast<PushReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      auto rep = std::make_shared<PushRep>();
      Remote* r = find_pushed(body->pid, body->asid);
      if (r == nullptr) {
        // Already drained (or never registered): benign race, nothing owed.
        respond(Reply{Status::ok(), rep});
        return;
      }
      vm::SegmentState& st = r->space->segment(body->seg);
      for (std::int64_t p = body->first;
           p < body->first + body->count && p < st.pages; ++p) {
        const auto i = static_cast<std::size_t>(p);
        if (!st.in_remote[i]) continue;  // pulled while the push was in flight
        st.in_remote[i] = false;
        st.resident[i] = true;
        ++rep->applied;
      }
      check_target_drained(body->pid, body->asid);
      respond(Reply{Status::ok(), rep});
      return;
    }
    case XferOp::kPull: {
      auto body = rpc::body_cast<PullReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      auto it = residual_.find(body->asid);
      if (it == residual_.end()) {
        respond(Reply{Status(Err::kNoEnt, "no residual image"), nullptr});
        return;
      }
      c_cor_pages_->inc(body->count);
      if (Residual& r = it->second; r.push) {
        // The push daemon must not re-send pages the target just pulled.
        auto& owed = r.owed[static_cast<std::size_t>(body->seg)];
        for (std::int64_t p = body->first;
             p < body->first + body->count &&
             p < static_cast<std::int64_t>(owed.size());
             ++p) {
          if (!owed[static_cast<std::size_t>(p)]) continue;
          owed[static_cast<std::size_t>(p)] = false;
          --r.left;
        }
        if (r.committed && r.left == 0) finish_push_drained(body->asid);
      }
      if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
        tr.instant("mig", "cor pages served", self_, -1,
                   {{"count", std::to_string(body->count)},
                    {"to", std::to_string(src)}});
      auto rep = std::make_shared<PullRep>();
      rep->bytes = body->count * host_.cluster().costs().page_size;
      respond(Reply{Status::ok(), rep});
      return;
    }
  }
  respond(Reply{Status(Err::kNotSupported, "bad xfer op"), nullptr});
}

}  // namespace sprite::xfer
