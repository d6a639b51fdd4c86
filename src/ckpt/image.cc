#include "ckpt/image.h"

#include "util/codec.h"

namespace sprite::ckpt {

namespace {

void put_runs(util::Encoder& e, const CkptSegRuns& sr) {
  e.put_i64(sr.pages);
  e.put_u64(sr.runs.size());
  for (const auto& [first, count] : sr.runs) {
    e.put_i64(first);
    e.put_i64(count);
  }
}

CkptSegRuns get_runs(util::Decoder& d) {
  CkptSegRuns sr;
  sr.pages = d.i64();
  const std::uint64_t n = d.u64();
  for (std::uint64_t i = 0; i < n && d.ok(); ++i) {
    const std::int64_t first = d.i64();
    const std::int64_t count = d.i64();
    sr.runs.emplace_back(first, count);
  }
  return sr;
}

}  // namespace

std::int64_t CkptSegRuns::captured() const {
  std::int64_t n = 0;
  for (const auto& [first, count] : runs) {
    (void)first;
    n += count;
  }
  return n;
}

std::uint64_t image_sum(const fs::Bytes& raw) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (unsigned char c : raw) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

fs::Bytes CkptMeta::encode() const {
  util::Encoder e;
  e.put_i64(kMagic);
  e.put_i64(kVersion);
  pcb.encode(e);
  e.put_i64(seq);
  e.put_u64(chain.size());
  for (std::int64_t s : chain) e.put_i64(s);
  e.put_bytes(program_state);
  e.put_u64(streams.size());
  for (const auto& s : streams) {
    e.put_i32(s.fd);
    e.put_str(s.path);
    e.put_i64(s.offset);
    e.put_bool(s.flags.read);
    e.put_bool(s.flags.write);
    e.put_bool(s.flags.create);
    e.put_bool(s.flags.truncate);
    e.put_bool(s.flags.no_cache);
  }
  e.put_i64(code_pages);
  put_runs(e, heap);
  put_runs(e, stack);
  fs::Bytes payload = e.take();
  // Trailing checksum over everything above: a meta that was truncated by a
  // torn write or bit-flipped on disk fails verification wholesale instead
  // of yielding a plausible-looking partial decode.
  util::Encoder t;
  t.put_u64(image_sum(payload));
  const fs::Bytes trailer = t.take();
  payload.insert(payload.end(), trailer.begin(), trailer.end());
  return payload;
}

util::Result<CkptMeta> CkptMeta::decode(const fs::Bytes& raw) {
  if (raw.size() < 8)
    return {util::Err::kInval, "checkpoint meta: too short"};
  const fs::Bytes payload(raw.begin(), raw.end() - 8);
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i)
    stored |= static_cast<std::uint64_t>(raw[raw.size() - 8 +
                                             static_cast<std::size_t>(i)])
              << (8 * i);
  if (stored != image_sum(payload))
    return {util::Err::kInval, "checkpoint meta: checksum mismatch"};
  util::Decoder d(payload);
  if (d.i64() != kMagic || d.i64() != kVersion)
    return {util::Err::kInval, "checkpoint meta: bad magic/version"};
  CkptMeta m;
  m.pcb = proc::PcbRecord::decode(d);
  m.seq = d.i64();
  const std::uint64_t nchain = d.u64();
  for (std::uint64_t i = 0; i < nchain && d.ok(); ++i) m.chain.push_back(d.i64());
  m.program_state = d.blob();
  const std::uint64_t nstreams = d.u64();
  for (std::uint64_t i = 0; i < nstreams && d.ok(); ++i) {
    CkptStream s;
    s.fd = d.i32();
    s.path = d.str();
    s.offset = d.i64();
    s.flags.read = d.boolean();
    s.flags.write = d.boolean();
    s.flags.create = d.boolean();
    s.flags.truncate = d.boolean();
    s.flags.no_cache = d.boolean();
    m.streams.push_back(std::move(s));
  }
  m.code_pages = d.i64();
  m.heap = get_runs(d);
  m.stack = get_runs(d);
  if (!d.ok() || !d.at_end())
    return {util::Err::kInval, "checkpoint meta: truncated or oversized"};
  if (m.chain.empty() || m.chain.back() != m.seq)
    return {util::Err::kInval, "checkpoint meta: malformed chain"};
  return m;
}

fs::Bytes encode_head(std::int64_t seq) {
  util::Encoder e;
  e.put_i64(CkptMeta::kMagic);
  e.put_i64(seq);
  fs::Bytes payload = e.take();
  util::Encoder t;
  t.put_u64(image_sum(payload));
  const fs::Bytes trailer = t.take();
  payload.insert(payload.end(), trailer.begin(), trailer.end());
  return payload;
}

util::Result<std::int64_t> decode_head(const fs::Bytes& raw) {
  if (raw.size() != 24)
    return {util::Err::kInval, "checkpoint head: wrong size"};
  const fs::Bytes payload(raw.begin(), raw.begin() + 16);
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i)
    stored |= static_cast<std::uint64_t>(raw[16 + static_cast<std::size_t>(i)])
              << (8 * i);
  if (stored != image_sum(payload))
    return {util::Err::kInval, "checkpoint head: checksum mismatch"};
  util::Decoder d(payload);
  if (d.i64() != CkptMeta::kMagic)
    return {util::Err::kInval, "checkpoint head: bad magic"};
  const std::int64_t seq = d.i64();
  if (!d.ok() || !d.at_end() || seq <= 0)
    return {util::Err::kInval, "checkpoint head: malformed"};
  return seq;
}

std::string head_path(proc::Pid pid, int slot) {
  return "/ckpt/p" + std::to_string(pid) + ".head." + std::to_string(slot);
}

std::string meta_path(proc::Pid pid, std::int64_t seq) {
  return "/ckpt/p" + std::to_string(pid) + ".meta." + std::to_string(seq);
}

std::string pages_path(proc::Pid pid, std::int64_t seq) {
  return "/ckpt/p" + std::to_string(pid) + ".pages." + std::to_string(seq);
}

}  // namespace sprite::ckpt
