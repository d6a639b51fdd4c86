#include "proc/pcb.h"

namespace sprite::proc {

void PcbRecord::encode(util::Encoder& e) const {
  e.put_i64(static_cast<std::int64_t>(pid));
  e.put_i64(static_cast<std::int64_t>(ppid));
  e.put_i32(home);
  e.put_i64(incarnation);
  e.put_str(exe_path);
  e.put_u64(args.size());
  for (const auto& a : args) e.put_str(a);
  e.put_i32(static_cast<int>(view.status.err()));
  e.put_str(view.status.message());
  e.put_i64(view.rv);
  e.put_i32(view.aux);
  e.put_bytes(view.data);
  e.put_bool(view.is_child);
  e.put_str(view.text);
  e.put_i32(next_fd);
  e.put_i64(remaining_compute.us());
  e.put_i64(pause_remaining.us());
  e.put_bool(blocked_in_wait);
  e.put_bool(kill_pending);
  e.put_i32(kill_sig);
  e.put_i64(spawned_at.us());
}

PcbRecord PcbRecord::decode(util::Decoder& d) {
  PcbRecord r;
  r.pid = static_cast<Pid>(d.i64());
  r.ppid = static_cast<Pid>(d.i64());
  r.home = d.i32();
  r.incarnation = d.i64();
  r.exe_path = d.str();
  const std::uint64_t nargs = d.u64();
  for (std::uint64_t i = 0; i < nargs && d.ok(); ++i) r.args.push_back(d.str());
  r.view.pid = r.pid;
  r.view.ppid = r.ppid;
  const auto err = static_cast<util::Err>(d.i32());
  r.view.status = util::Status(err, d.str());
  r.view.rv = d.i64();
  r.view.aux = d.i32();
  r.view.data = d.blob();
  r.view.is_child = d.boolean();
  r.view.text = d.str();
  r.next_fd = d.i32();
  r.remaining_compute = sim::Time::usec(d.i64());
  r.pause_remaining = sim::Time::usec(d.i64());
  r.blocked_in_wait = d.boolean();
  r.kill_pending = d.boolean();
  r.kill_sig = d.i32();
  r.spawned_at = sim::Time::usec(d.i64());
  return r;
}

}  // namespace sprite::proc
