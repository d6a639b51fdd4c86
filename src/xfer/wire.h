// RPC wire messages for the kXfer service (the live page-transfer engine).
//
// Rounds, map exchanges and pushes carry the migration's trace::Context on
// the wire automatically: the engine makes the context ambient before each
// call and the RPC layer stamps it into the frame, so they land in the
// owning migration's causal trace. Pulls carry whatever context is ambient
// at the fault.
#pragma once

#include <cstdint>
#include <vector>

#include "proc/pcb.h"
#include "rpc/rpc.h"
#include "vm/vm.h"

namespace sprite::xfer {

enum class XferOp : int {
  kPageBatch = 1,  // bulk page payload for one pre-copy round / unique pages
  kMap,            // content-id map exchange: "do you have these bytes?"
  kPush,           // post-copy background push of residual pages
  kPull,           // copy-on-reference fault: the target pulls from the source
};

// Bulk page payload. Only the byte count matters (page contents are not
// materialized); `round` tags which pre-copy round the payload belongs to
// (-1: the final frozen set).
struct PageBatchReq : rpc::Message {
  proc::Pid pid = proc::kInvalidPid;
  int round = 0;
  std::int64_t pages = 0;
  std::int64_t bytes = 0;
  std::int64_t wire_bytes() const override { return 24 + bytes; }
};

// Content-id map exchange: the source lists the ids of shareable pages and
// the target answers which ones it cannot source locally. A reference is
// costs.xfer_ref_bytes on the wire versus page_size for the full page.
struct MapReq : rpc::Message {
  proc::Pid pid = proc::kInvalidPid;
  std::int64_t asid = 0;
  std::int64_t ref_bytes = 16;  // per-id wire cost (costs.xfer_ref_bytes)
  std::vector<std::uint64_t> ids;
  std::int64_t wire_bytes() const override {
    return 24 + static_cast<std::int64_t>(ids.size()) * ref_bytes;
  }
};

struct MapRep : rpc::Message {
  std::vector<bool> need;  // need[i]: target lacks ids[i], send it in full
  std::int64_t wire_bytes() const override {
    return 16 + static_cast<std::int64_t>(need.size()) / 8;
  }
};

// Post-copy background push: one run of residual pages, applied directly to
// the target's page tables (clears in_remote, sets resident).
struct PushReq : rpc::Message {
  proc::Pid pid = proc::kInvalidPid;
  std::int64_t asid = 0;
  vm::Segment seg = vm::Segment::kHeap;
  std::int64_t first = 0;
  std::int64_t count = 0;
  std::int64_t bytes = 0;
  std::int64_t wire_bytes() const override { return 48 + bytes; }
};

struct PushRep : rpc::Message {
  std::int64_t applied = 0;  // pages that were still remote on arrival
  std::int64_t wire_bytes() const override { return 16; }
};

// Copy-on-reference pull: a fault on the target fetches one run of residual
// pages (at most 16) from the source's frozen image.
struct PullReq : rpc::Message {
  std::int64_t asid = 0;
  vm::Segment seg = vm::Segment::kHeap;
  std::int64_t first = 0;
  std::int64_t count = 0;
  std::int64_t wire_bytes() const override { return 40; }
};

struct PullRep : rpc::Message {
  std::int64_t bytes = 0;  // count * page_size of payload
  std::int64_t wire_bytes() const override { return 16 + bytes; }
};

}  // namespace sprite::xfer
