#include "loadshare/central.h"

#include <cstdio>
#include <sstream>

#include "kern/cluster.h"
#include "loadshare/node.h"
#include "util/assert.h"
#include "util/log.h"

namespace sprite::ls {

using fs::Bytes;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Status;

namespace {

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string to_string(const Bytes& b) { return std::string(b.begin(), b.end()); }

}  // namespace

// ---------------------------------------------------------------------------
// MigdDaemon
// ---------------------------------------------------------------------------

MigdDaemon::MigdDaemon(kern::Host& host) : host_(host) {}

util::Status MigdDaemon::install(const std::string& pdev_path) {
  const int tag = host_.pdev().register_server(
      [this](const Bytes& req,
             std::function<void(util::Result<Bytes>)> reply) {
        reply(to_bytes(handle(to_string(req))));
      });
  // Register at the *current* primary: after a failover the configured
  // server may be a demoted backup whose tree clients never consult.
  auto* server = host_.cluster().fs_primary().fs_server();
  server->mkdir_p("/hosts");
  auto r = server->create_pdev(pdev_path, host_.id(), tag);
  return r.is_ok() ? Status::ok() : r.status();
}

void MigdDaemon::restart() {
  table_.clear();
  grants_by_requester_.clear();
  last_request_.clear();
  revocations_.clear();
}

void MigdDaemon::peer_crashed(sim::HostId h) {
  table_.erase(h);
  for (auto& [w, info] : table_)
    if (info.assigned_to == h) info.assigned_to = sim::kInvalidHost;
  grants_by_requester_.erase(h);
  last_request_.erase(h);
  revocations_.erase(h);
}

void MigdDaemon::collect_peer_interest(std::vector<sim::HostId>& out) const {
  for (const auto& [w, n] : grants_by_requester_)
    if (n > 0) out.push_back(w);
  for (const auto& [w, info] : table_)
    if (info.assigned_to != sim::kInvalidHost) out.push_back(w);
}

bool MigdDaemon::fresh(const HostInfo& info, Time now) const {
  return now - info.last_announce <=
         host_.cluster().costs().ls_update_period * 3.0;
}

int MigdDaemon::idle_unassigned(Time now) const {
  int n = 0;
  for (const auto& [h, info] : table_) {
    if (info.idle && info.assigned_to == sim::kInvalidHost &&
        fresh(info, now))
      ++n;
  }
  return n;
}

std::string MigdDaemon::handle(const std::string& request) {
  std::istringstream in(request);
  std::string op;
  in >> op;
  if (op == "ANN") {
    long host;
    int idle;
    double load;
    in >> host >> idle >> load;
    ++stats_.announcements;
    HostInfo& info = table_[static_cast<HostId>(host)];
    info.idle = idle != 0;
    info.load = load;
    info.last_announce = host_.cluster().sim().now();
    return "OK";
  }
  if (op == "REQ") {
    long requester;
    int n;
    in >> requester >> n;
    return handle_req(static_cast<HostId>(requester), n);
  }
  if (op == "REL") {
    long requester, h;
    in >> requester >> h;
    ++stats_.releases;
    auto it = table_.find(static_cast<HostId>(h));
    if (it != table_.end() &&
        it->second.assigned_to == static_cast<HostId>(requester)) {
      it->second.assigned_to = sim::kInvalidHost;
      auto git = grants_by_requester_.find(static_cast<HostId>(requester));
      if (git != grants_by_requester_.end() && git->second > 0) --git->second;
    }
    return "OK";
  }
  return "ERR";
}

std::string MigdDaemon::handle_req(HostId requester, int n) {
  ++stats_.requests;
  const Time now = host_.cluster().sim().now();
  last_request_[requester] = now;

  // Fair allocation under contention: a requester may hold at most
  // ceil(supply / active requesters) hosts, with a floor of one.
  int active = 0;
  for (const auto& [r, t] : last_request_) {
    const bool recent = now - t <= Time::sec(60);
    const bool holding = grants_by_requester_.count(r) != 0 &&
                         grants_by_requester_.at(r) > 0;
    if (recent || holding) ++active;
  }
  int supply = idle_unassigned(now);
  for (const auto& [r, g] : grants_by_requester_) supply += g;
  const int cap = std::max(1, (supply + active - 1) / std::max(1, active));

  int& held = grants_by_requester_[requester];
  std::string out = "G";
  int granted = 0;
  for (auto& [h, info] : table_) {
    if (granted >= n || held >= cap) break;
    if (!info.idle || info.assigned_to != sim::kInvalidHost ||
        !fresh(info, now))
      continue;
    if (h == requester) continue;  // do not hand a requester itself
    info.assigned_to = requester;
    ++held;
    ++granted;
    ++stats_.grants;
    out += " " + std::to_string(h);
  }

  // Fair recall: if supply ran out but another requester holds more than
  // its share, reclaim the excess for this requester. The previous holder
  // learns via the R-list in its next request (cooperative recall, as
  // pmake practised with migd).
  while (granted < n && held < cap) {
    sim::HostId victim_requester = sim::kInvalidHost;
    int most = cap;
    for (const auto& [r, g] : grants_by_requester_) {
      if (r != requester && g > most) {
        most = g;
        victim_requester = r;
      }
    }
    if (victim_requester == sim::kInvalidHost) break;
    // Take one of the victim's hosts (the highest-numbered, arbitrarily).
    sim::HostId taken = sim::kInvalidHost;
    for (auto it = table_.rbegin(); it != table_.rend(); ++it) {
      if (it->second.assigned_to == victim_requester &&
          it->first != requester) {
        taken = it->first;
        break;
      }
    }
    if (taken == sim::kInvalidHost) break;
    table_[taken].assigned_to = requester;
    --grants_by_requester_[victim_requester];
    revocations_[victim_requester].push_back(taken);
    ++held;
    ++granted;
    ++stats_.grants;
    out += " " + std::to_string(taken);
  }

  if (granted == 0) ++stats_.denials;

  // Append any pending revocations addressed to this requester.
  auto rit = revocations_.find(requester);
  if (rit != revocations_.end() && !rit->second.empty()) {
    out += " R";
    for (sim::HostId h : rit->second) out += " " + std::to_string(h);
    rit->second.clear();
  }
  return out;
}

// ---------------------------------------------------------------------------
// MigdAnnouncer
// ---------------------------------------------------------------------------

MigdAnnouncer::MigdAnnouncer(kern::Host& host, LoadShareNode& node,
                             std::string pdev_path)
    : host_(host), node_(node), path_(std::move(pdev_path)) {}

void MigdAnnouncer::ensure_open(std::function<void()> then) {
  if (stream_) {
    then();
    return;
  }
  if (opening_) return;  // a periodic retry will come around again
  opening_ = true;
  host_.fs().open(path_, fs::OpenFlags::read_write(),
                  [this, then = std::move(then)](
                      util::Result<fs::StreamPtr> r) {
                    opening_ = false;
                    if (!r.is_ok()) return;
                    stream_ = *r;
                    then();
                  });
}

void MigdAnnouncer::reset() {
  stream_ = nullptr;
  // An open in flight when the host crashed lost its callback with the
  // kernel; clear the guard so the next announcement can open again.
  opening_ = false;
}

void MigdAnnouncer::start() {
  host_.cluster().sim().every(host_.cluster().costs().ls_update_period,
                              "ls_update", [this] { announce_now(); });
}

void MigdAnnouncer::announce_now() {
  ensure_open([this] {
    char buf[96];
    std::snprintf(buf, sizeof buf, "ANN %d %d %.3f", host_.id(),
                  node_.is_idle() && !node_.reserved() ? 1 : 0, node_.load());
    host_.fs().pdev_call(stream_, to_bytes(buf),
                         [this](util::Result<Bytes> r) {
                           // A failed call usually means migd's host rebooted
                           // and the pdev was reinstalled under a new tag;
                           // reopen on the next announcement.
                           if (!r.is_ok()) stream_ = nullptr;
                         });
  });
}

// ---------------------------------------------------------------------------
// CentralSelector
// ---------------------------------------------------------------------------

CentralSelector::CentralSelector(
    kern::Host& host, std::string pdev_path,
    std::function<bool(sim::HostId)> ground_truth_idle)
    : HostSelector(host.cluster().sim().trace(), host.id()),
      host_(host),
      path_(std::move(pdev_path)),
      ground_truth_(std::move(ground_truth_idle)) {}

void CentralSelector::ensure_open(std::function<void(Status)> then) {
  if (stream_) return then(Status::ok());
  host_.fs().open(path_, fs::OpenFlags::read_write(),
                  [this, then = std::move(then)](
                      util::Result<fs::StreamPtr> r) {
                    if (!r.is_ok()) return then(r.status());
                    stream_ = *r;
                    then(Status::ok());
                  });
}

void CentralSelector::request_hosts(int n, GrantCb cb) {
  note_request();
  const Time start = host_.cluster().sim().now();
  ensure_open([this, n, start, cb = std::move(cb)](Status s) mutable {
    if (!s.is_ok()) return cb({});
    const std::string req =
        "REQ " + std::to_string(host_.id()) + " " + std::to_string(n);
    host_.fs().pdev_call(
        stream_, to_bytes(req),
        [this, start, cb = std::move(cb)](util::Result<Bytes> r) {
          std::vector<HostId> hosts;
          if (!r.is_ok()) stream_ = nullptr;  // reopen next time (migd moved)
          if (r.is_ok()) {
            std::istringstream in(to_string(*r));
            std::string tok;
            in >> tok;  // leading "G"
            bool revoking = false;
            while (in >> tok) {
              if (tok == "R") {
                revoking = true;
                continue;
              }
              const auto h = static_cast<HostId>(std::stol(tok));
              if (revoking) {
                revoked_.push_back(h);
              } else {
                hosts.push_back(h);
              }
            }
          }
          note_grant_done(static_cast<std::int64_t>(hosts.size()),
                          (host_.cluster().sim().now() - start).ms());
          if (ground_truth_) {
            for (HostId h : hosts)
              if (!ground_truth_(h)) note_bad_grant();
          }
          cb(std::move(hosts));
        });
  });
}

void CentralSelector::release_host(HostId h) {
  ensure_open([this, h](Status s) {
    if (!s.is_ok()) return;
    const std::string req =
        "REL " + std::to_string(host_.id()) + " " + std::to_string(h);
    host_.fs().pdev_call(stream_, to_bytes(req),
                         [this](util::Result<Bytes> r) {
                           if (!r.is_ok()) stream_ = nullptr;
                         });
  });
}

}  // namespace sprite::ls
