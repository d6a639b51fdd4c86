// Shared types for the Sprite network file system substrate.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/ids.h"

namespace sprite::fs {

// Inode number, unique per server.
using Ino = std::int64_t;
inline constexpr Ino kInvalidIno = -1;

// Globally unique file identity: (I/O server, inode).
struct FileId {
  sim::HostId server = sim::kInvalidHost;
  Ino ino = kInvalidIno;

  bool valid() const { return server != sim::kInvalidHost; }
  auto operator<=>(const FileId&) const = default;
};

enum class FileType : std::uint8_t {
  kRegular,
  kDirectory,
  kPseudoDevice,
  // An IPC pipe: a kernel buffer resident at the file server. Reader and
  // writer ends are ordinary streams, so migration re-attributes them with
  // the same machinery as files — the buffer itself never moves, and
  // neither endpoint can tell where the other runs.
  kPipe,
};

// Open flags, 4.3BSD-flavoured.
struct OpenFlags {
  bool read = false;
  bool write = false;
  bool create = false;
  bool truncate = false;
  // Bypass the client block cache (used for VM backing files: Sprite's
  // virtual memory pages through the FS but does not pollute the block
  // cache with page traffic).
  bool no_cache = false;

  static OpenFlags read_only() { return {.read = true}; }
  static OpenFlags write_only() { return {.write = true}; }
  static OpenFlags read_write() { return {.read = true, .write = true}; }
  static OpenFlags create_rw() {
    return {.read = true, .write = true, .create = true};
  }
};

using Bytes = std::vector<std::uint8_t>;

// The file system's one data payload: real bytes, or a length-only run of
// zero bytes. Page flushes and checkpoint images write runs — no experiment
// reads memory contents (src/vm/vm.h) — and the file server stores,
// journals and checksums a run without ever holding its bytes. size() is
// the payload's length on the wire and on disk either way.
class Extent {
 public:
  Extent() = default;
  Extent(Bytes bytes)  // NOLINT: implicit by design
      : bytes_(std::move(bytes)) {}
  static Extent zeros(std::int64_t n) {
    Extent e;
    e.zeros_ = std::max<std::int64_t>(n, 0);
    return e;
  }

  std::int64_t size() const {
    return zeros_ > 0 ? zeros_ : static_cast<std::int64_t>(bytes_.size());
  }
  bool empty() const { return size() == 0; }
  bool is_zeros() const { return zeros_ > 0; }
  // The real bytes; empty for a zero run.
  const Bytes& bytes() const { return bytes_; }

  // Copies [off, off + n) into `out`.
  void copy_to(std::int64_t off, std::int64_t n, std::uint8_t* out) const {
    if (zeros_ > 0)
      std::fill_n(out, n, std::uint8_t{0});
    else
      std::copy_n(bytes_.begin() + off, n, out);
  }
  Extent slice(std::int64_t off, std::int64_t n) const {
    if (zeros_ > 0) return zeros(n);
    return Bytes(bytes_.begin() + off, bytes_.begin() + off + n);
  }
  // Materializes a zero run in place, for writes into the payload.
  Bytes& mutable_bytes() {
    if (zeros_ > 0) bytes_.assign(static_cast<std::size_t>(zeros_), 0);
    zeros_ = 0;
    return bytes_;
  }
  Bytes to_bytes() const& { return Extent(*this).to_bytes(); }
  Bytes to_bytes() && { return std::move(mutable_bytes()); }

 private:
  Bytes bytes_;
  std::int64_t zeros_ = 0;  // > 0: a zero run of this length; bytes_ empty
};

// What the name server returns from a successful open.
struct OpenResult {
  FileId id;
  FileType type = FileType::kRegular;
  std::int64_t size = 0;
  // Incremented each time a client opens the file for writing; clients use
  // it to validate cached blocks across opens.
  std::int64_t version = 0;
  // False when concurrent write sharing forces all clients to bypass their
  // caches for this file.
  bool cacheable = true;
  // For pseudo-devices: host running the user-level server, and its tag.
  sim::HostId pdev_host = sim::kInvalidHost;
  int pdev_tag = 0;
  // Server boot generation at open time. I/O requests carry it back; after
  // a server crash the generation moves and old streams get Err::kStale,
  // forcing the client through reopen-recovery (handles do not survive a
  // server reboot — Sprite's stateful-server recovery model).
  std::int64_t generation = 0;
};

struct StatResult {
  FileId id;
  FileType type = FileType::kRegular;
  std::int64_t size = 0;
  std::int64_t version = 0;
};

// Splits "/a/b/c" into {"a","b","c"}. Empty components are dropped.
std::vector<std::string> split_path(const std::string& path);

// Number of pathname components (lookup cost driver).
int path_components(const std::string& path);

}  // namespace sprite::fs
