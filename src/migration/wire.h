// RPC wire messages for the kMigration service.
//
// A migration's transfer carries the process's proc::PcbRecord as is (the
// process module owns that encapsulation, and checkpoints store the same
// record) plus what only migration moves: exported streams, the address
// space descriptor and the program image.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fs/client.h"
#include "proc/pcb.h"
#include "proc/program.h"
#include "rpc/rpc.h"
#include "vm/vm.h"

namespace sprite::mig {

// Page traffic (rounds, pushes, copy-on-reference pulls) belongs to the
// kXfer service (xfer/wire.h).
enum class MigOp : int {
  kInit = 1,       // version handshake; target allocates a pending slot
  kTransfer,       // encapsulated process state; target resumes the process
  kAbort,          // source gave up; target drops the pending slot
};

struct InitReq : rpc::Message {
  int version = 0;
  proc::Pid pid = proc::kInvalidPid;
  std::int64_t wire_bytes() const override { return 24; }
};

struct InitRep : rpc::Message {
  int version = 0;
  bool accepted = false;
  std::int64_t wire_bytes() const override { return 16; }
};

// The Program object cannot be copied through a "wire", so it rides in a
// shared box the destination moves it out of. In a real kernel this is the
// register set plus user memory contents; its transfer cost is modelled by
// the VM strategy, and the box stands in for the bits.
struct ProgramBox {
  std::unique_ptr<proc::Program> program;
};

struct TransferReq : rpc::Message {
  // The PCB's movable part, copied out of the frozen process.
  proc::PcbRecord pcb;
  // Remote-UNIX comparator: the process's file calls are forwarded home
  // (no streams ride along; they stayed at home).
  bool forward_file_calls = false;

  // Streams, already re-attributed at their I/O servers by the source.
  std::vector<std::pair<int, fs::ExportedStream>> streams;

  // Address space. has_space is false for exec-time migration (the target
  // builds a fresh image from exe_path).
  bool has_space = false;
  vm::SpaceDescriptor space;
  // Copy-on-reference: the source retains the memory image and its
  // transfer engine serves pulls for it (xfer::XferOp::kPull).
  bool cor_source_resident = false;
  // Post-copy: the source additionally pushes the residual pages in the
  // background, so the dependency drains without faults.
  bool postcopy_push = false;

  std::shared_ptr<ProgramBox> box;  // null for exec-time migration

  // PCB + per-stream encapsulation sizes; the page-table bitmaps ride along.
  std::int64_t pcb_bytes = 0;
  std::int64_t wire_bytes() const override {
    std::int64_t n = pcb_bytes;
    n += static_cast<std::int64_t>(streams.size()) * 256;
    if (has_space) n += space.wire_bytes();
    for (const auto& a : pcb.args) n += static_cast<std::int64_t>(a.size());
    return n;
  }
};

struct AbortReq : rpc::Message {
  proc::Pid pid = proc::kInvalidPid;
  std::int64_t wire_bytes() const override { return 16; }
};

}  // namespace sprite::mig
