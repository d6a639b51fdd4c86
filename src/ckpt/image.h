// Checkpoint image format (src/ckpt/).
//
// A process's checkpoint lives on the shared file system as a chain of
// numbered captures plus a tiny head file naming the latest committed one:
//
//   /ckpt/p<pid>.meta.<seq>     serialized CkptMeta (this header)
//   /ckpt/p<pid>.pages.<seq>    captured page contents, in capture order
//   /ckpt/p<pid>.head.<seq&1>   committed seq, checksummed (rewritten last)
//
// A meta holds the process's proc::PcbRecord, the same record a migration
// ships (proc/pcb.h owns its fields and codec), plus what only a checkpoint
// keeps: the chain, the program's state, the streams by path and the page
// runs.
//
// A capture is either a full base (chain == {seq}) or an increment whose
// meta lists every older member of its chain. The pages file holds only the
// pages this capture wrote (full base: every page that differs from
// zero-fill; increment: pages dirtied since the previous capture), so the
// final memory image is reconstructed at restart by overlaying the chain's
// capture lists oldest-first — no cumulative page map is ever stored.
//
// Commit protocol: pages, then meta, then head, all written through the
// cache-bypassing path. The head rewrite is the commit point, and it
// alternates between two slot files (seq & 1): a commit only ever
// overwrites the slot NOT holding the newest committed head, so a head
// rewrite torn by a crash garbles at most its own slot and the other slot
// still names the previous committed capture. Both the head payload and the
// meta carry a trailing FNV-64 checksum; readers take the highest-seq slot
// that verifies and fall back to the other when the winner's chain turns
// out unreadable. A checkpoint chain is therefore never lost — and never
// half-restored — to a crash or corruption mid-checkpoint.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fs/types.h"
#include "proc/pcb.h"
#include "sim/ids.h"
#include "util/status.h"

namespace sprite::ckpt {

// One open descriptor, by durable identity: enough to rebuild the stream on
// any host via FsClient::open_recorded. Only path-recoverable streams are
// checkpointable (see FsClient::recoverable_by_path).
struct CkptStream {
  int fd = -1;
  std::string path;
  std::int64_t offset = 0;
  fs::OpenFlags flags;
};

// Pages one capture wrote for one segment, as (first, count) runs over the
// segment's page index space. Runs appear in ascending order; their
// concatenation (heap runs, then stack runs) is the pages-file layout.
struct CkptSegRuns {
  std::int64_t pages = 0;  // segment size, for create_space at restart
  std::vector<std::pair<std::int64_t, std::int64_t>> runs;
  std::int64_t captured() const;
};

struct CkptMeta {
  static constexpr std::int64_t kMagic = 0x53435250'434B5054;  // "SCRP CKPT"
  // v2: trailing FNV-64 checksum over the encoded payload, so a truncated
  // or bit-flipped meta is detected at decode instead of half-restored.
  // v3: the PCB record leads, in proc::PcbRecord's own encoding (same
  // fields and widths as v2, reordered).
  static constexpr std::int64_t kVersion = 3;

  // The frozen process's PCB record, the one migration ships too. Its
  // incarnation is the epoch of the copy that captured this.
  proc::PcbRecord pcb;
  // Chain position.
  std::int64_t seq = 0;
  std::vector<std::int64_t> chain;  // oldest (base) .. seq, inclusive
  fs::Bytes program_state;  // Program::encode_state at the frozen safe point

  // Open streams and memory.
  std::vector<CkptStream> streams;
  std::int64_t code_pages = 0;
  CkptSegRuns heap;
  CkptSegRuns stack;

  std::int64_t captured_pages() const { return heap.captured() + stack.captured(); }

  fs::Bytes encode() const;
  static util::Result<CkptMeta> decode(const fs::Bytes& raw);
};

// Checksum used by the head and meta trailers (FNV-1a 64 over `raw`).
std::uint64_t image_sum(const fs::Bytes& raw);

// Head slot payload: the committed seq, magic-framed and checksummed. A
// torn or corrupted slot fails decode_head, which is what lets restart fall
// back to the other slot.
fs::Bytes encode_head(std::int64_t seq);
util::Result<std::int64_t> decode_head(const fs::Bytes& raw);

// Image pathnames, shared by capture, restart, and compaction. The head
// for committed seq S lives in slot S & 1; there are exactly kHeadSlots.
inline constexpr int kHeadSlots = 2;
std::string head_path(proc::Pid pid, int slot);
std::string meta_path(proc::Pid pid, std::int64_t seq);
std::string pages_path(proc::Pid pid, std::int64_t seq);

}  // namespace sprite::ckpt
