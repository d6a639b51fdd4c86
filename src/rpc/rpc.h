// Kernel-to-kernel RPC in the style of Sprite's RPC system [Wel86], itself
// modelled on Birrell-Nelson [BN84].
//
// Each host owns one RpcNode. Services (file system, process control,
// migration, load sharing, pseudo-devices) register handlers; remote kernels
// call them. Semantics are at-most-once: the server deduplicates retransmitted
// requests and replays the cached reply. A call that cannot be completed
// (server down) fails with Err::kTimedOut after bounded retransmissions.
//
// Costs: every message consumes rpc_cpu_per_msg of kernel CPU on each end and
// occupies the shared network medium for its wire time, so RPC-heavy
// activities (pmake open storms, migration) contend for the server CPU and
// the Ethernet exactly the way the thesis describes.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/costs.h"
#include "sim/cpu.h"
#include "sim/ids.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/status.h"

namespace sprite::rpc {

// Base class for RPC payload bodies. Payloads live in one address space (the
// simulation), so "serialization" is notional: each type declares its wire
// size and is shared immutably.
struct Message {
  virtual ~Message() = default;
  virtual std::int64_t wire_bytes() const = 0;
};

using MessagePtr = std::shared_ptr<const Message>;

// Convenience for bodies that are plain structs.
template <typename T>
std::shared_ptr<const T> body_cast(const MessagePtr& m) {
  return std::dynamic_pointer_cast<const T>(m);
}

// Services a kernel exports. One dispatch table per host.
enum class ServiceId : int {
  kEcho = 0,     // diagnostics
  kFsName,       // name operations: open/close/lookup/remove
  kFsIo,         // block I/O, shared offsets, stream migration
  kFsCallback,   // server-to-client cache consistency callbacks
  kProc,         // remote process ops: signals, wait, home-call forwarding
  kMigration,    // migration protocol
  kLoadShare,    // host-selection protocols
  kPdev,         // pseudo-device request forwarding
  kRecov,        // failure-detection echoes (src/recov/monitor.h)
  kCkpt,         // checkpoint/restart coordination (src/ckpt/)
  kFsRepl,       // file-server primary↔backup replication (src/fs/server.h)
  kXfer,         // live page-transfer engine (src/xfer/)
};
const char* service_name(ServiceId id);

// Liveness oracle, implemented by recov::HostMonitor. The RPC layer feeds it
// evidence — every message received carries proof of life (and the sender's
// boot epoch); every retry-exhausted call is proof of unreachability — and
// consults it when retries run out: a call to a merely *suspect* peer parks
// (stalls) until the monitor reaches a verdict, while a call to a *down*
// peer fails. No RPC consumer sees simulator ground truth.
class PeerLiveness {
 public:
  enum class State { kUp, kSuspect, kDown };
  virtual ~PeerLiveness() = default;
  virtual void note_alive(sim::HostId peer, std::uint32_t epoch) = 0;
  virtual void note_unreachable(sim::HostId peer) = 0;
  virtual State state(sim::HostId peer) const = 0;
};

// Per-call overrides, used by the host monitor's probes (which must never
// stall on the very machinery they feed).
struct CallOpts {
  int max_retries = -1;  // < 0: use Costs::rpc_max_retries
  bool no_park = false;  // on exhaustion fail even while the peer is suspect
  // Liveness probe: transmit even to a peer already marked down, never park.
  bool probe = false;
};

struct Request {
  ServiceId service{};
  int op = 0;
  MessagePtr body;  // may be null for argument-less ops

  std::int64_t wire_bytes() const {
    return 32 + (body ? body->wire_bytes() : 0);
  }
};

struct Reply {
  util::Status status;
  MessagePtr body;

  std::int64_t wire_bytes() const {
    return 32 + (body ? body->wire_bytes() : 0);
  }
};

class RpcNode {
 public:
  // `respond` must be invoked exactly once, possibly asynchronously (a file
  // server may need disk events before it can answer).
  using Handler = std::function<void(sim::HostId src, const Request& req,
                                     std::function<void(Reply)> respond)>;
  using ReplyCallback = std::function<void(util::Result<Reply>)>;

  RpcNode(sim::Simulator& sim, sim::Network& net, sim::Cpu& cpu,
          sim::HostId self, const sim::Costs& costs);

  sim::HostId host() const { return self_; }

  void register_service(ServiceId id, Handler handler);

  // Calls `service.op` on `dst`. `on_reply` fires exactly once with the
  // reply or with Err::kTimedOut. Calls to the local host are served through
  // the same dispatch path without touching the network (Sprite kernels
  // special-case local RPCs the same way).
  void call(sim::HostId dst, ServiceId service, int op, MessagePtr body,
            ReplyCallback on_reply);
  void call(sim::HostId dst, ServiceId service, int op, MessagePtr body,
            ReplyCallback on_reply, CallOpts opts);

  // One-way multicast: a single transmission delivered to every up host's
  // matching service handler. No reply, no retransmission (used by the
  // multicast host-selection architecture; responders answer with separate
  // unicast calls).
  void multicast(ServiceId service, int op, MessagePtr body);

  // Entry point for packets addressed to this host. The host glue registers
  // this with the Network (the RpcNode cannot attach itself because HostIds
  // are assigned by Network::attach).
  void handle_packet(const sim::Packet& pkt);

  // ---- crash / reboot support ----
  // Tears down all soft state as a crash would: pending calls are abandoned
  // (their callbacks are *not* invoked — the caller's state died with the
  // host), the dedup cache is dropped, and the reboot epoch is bumped so
  // peers can detect the reincarnation. Service registrations survive: the
  // subsystem objects stay alive and a reboot reuses them.
  void crash_reset();
  std::uint32_t epoch() const { return epoch_; }
  // Fires when a message from `peer` carries a higher epoch than previously
  // seen, i.e. the peer crashed and rebooted since we last spoke.
  void set_reincarnation_observer(std::function<void(sim::HostId)> obs) {
    reincarnation_observer_ = std::move(obs);
  }

  // ---- failure detection (src/recov/monitor.h) ----
  // Installs the liveness oracle. Without one (bare RpcNodes in unit tests)
  // calls simply fail after their retry budget, as before.
  void set_liveness(PeerLiveness* liveness) { liveness_ = liveness; }
  // Monitor verdicts for stalled calls. `fail_calls_to` aborts every
  // non-probe pending call to `peer` (it was declared down);
  // `resume_calls_to` restarts parked calls with a fresh retry budget (the
  // suspicion was false, or the peer rebooted and the new incarnation will
  // re-execute them — the documented retry-across-reboot semantics).
  void fail_calls_to(sim::HostId peer);
  void resume_calls_to(sim::HostId peer);

  // ---- fault-injection filters (sim/fault.h) ----
  // Packet predicates for FaultPlan rules; defined here because the wire
  // framing is private to RpcNode. `op` / `dst` of -1 / kInvalidHost match
  // anything.
  static std::function<bool(const sim::Packet&)> match_request(
      ServiceId service, int op = -1, sim::HostId dst = sim::kInvalidHost);
  static std::function<bool(const sim::Packet&)> match_reply(
      sim::HostId dst = sim::kInvalidHost);

  // ---- diagnostics ----
  struct PendingCallInfo {
    std::uint64_t call_id = 0;
    sim::HostId dst = sim::kInvalidHost;
    ServiceId service{};
    int op = 0;
    int attempts = 0;
    bool parked = false;  // stalled awaiting a monitor verdict
    bool probe = false;   // a monitor echo, not real work
  };
  std::vector<PendingCallInfo> pending_calls() const;

 private:
  struct WireRequest {
    std::uint64_t call_id;
    std::uint32_t epoch;  // sender's reboot epoch
    Request req;
    // Causal context of the client-side call span. Stored in the pending
    // call and stamped onto every (re)transmission, so a retransmitted
    // request carries the same context and the dedup cache guarantees it
    // spawns at most one server-side child span.
    trace::Context ctx;
  };
  struct WireReply {
    std::uint64_t call_id;
    std::uint32_t epoch;
    Reply rep;
    trace::Context ctx;  // server-side serve-span context
  };

  struct PendingCall {
    sim::HostId dst;
    Request req;
    ReplyCallback on_reply;
    int attempts = 0;
    sim::EventHandle timeout;
    CallOpts opts;
    sim::Time backoff;    // current retransmission interval
    bool parked = false;  // retries exhausted, peer suspect: stalled
    trace::Context ctx;   // client call-span context, stable across retries
  };

  void handle_request(sim::HostId src, const WireRequest& wreq);
  void handle_reply(sim::HostId src, const WireReply& wrep);
  void transmit(std::uint64_t call_id);
  void arm_timeout(std::uint64_t call_id);
  // Records `epoch` for `peer`; a jump means the peer rebooted, so its old
  // incarnation's dedup slots are purged and the observer fires.
  void note_peer_epoch(sim::HostId peer, std::uint32_t epoch);

  sim::Simulator& sim_;
  sim::Network& net_;
  sim::Cpu& cpu_;
  sim::HostId self_;
  const sim::Costs& costs_;

  std::map<ServiceId, Handler> services_;
  std::map<std::uint64_t, PendingCall> pending_;
  std::uint64_t next_call_id_ = 1;
  std::uint32_t epoch_ = 1;  // bumped on every crash
  std::map<sim::HostId, std::uint32_t> peer_epochs_;
  std::function<void(sim::HostId)> reincarnation_observer_;

  // At-most-once duplicate suppression: (client, call_id) -> cached reply.
  // In-progress entries hold no reply yet; retransmissions of those are
  // dropped (the eventual reply answers them). Bounded at
  // Costs::rpc_dedup_cap by LRU eviction of *completed* slots (a duplicate
  // hit refreshes its slot); in-progress slots are never evicted — losing
  // one would let a retransmission re-execute its handler.
  using DedupKey = std::pair<sim::HostId, std::uint64_t>;
  struct ServerSlot {
    bool completed = false;
    Reply cached;
    std::list<DedupKey>::iterator lru_it;
  };
  void touch_dedup(ServerSlot& slot);
  void prune_dedup();
  std::map<DedupKey, ServerSlot> served_;
  std::list<DedupKey> dedup_lru_;  // front = least recently used

  PeerLiveness* liveness_ = nullptr;
  util::Rng rng_;  // decorrelated-jitter draws (forked from the sim root)

  // Per-host counters in the simulator's trace registry (stable addresses,
  // cached once at construction).
  trace::Counter* c_started_;
  trace::Counter* c_retrans_;
  trace::Counter* c_timeouts_;
  trace::Counter* c_served_;
  trace::Counter* c_reincarnations_;
  trace::Counter* c_parked_;
  trace::Counter* c_unparked_;
  trace::Counter* c_dedup_evicted_;
  trace::Counter* c_dedup_hits_;
  trace::Gauge* g_dedup_size_;
  trace::LatencyHistogram* h_backoff_us_;
};

}  // namespace sprite::rpc
