#include "loadshare/distributed.h"

#include <algorithm>

#include "kern/cluster.h"
#include "util/assert.h"

namespace sprite::ls {

using rpc::Reply;
using rpc::ServiceId;
using sim::HostId;
using sim::Time;
using util::Status;

// ---------------------------------------------------------------------------
// ProbabilisticSelector
// ---------------------------------------------------------------------------

ProbabilisticSelector::ProbabilisticSelector(
    kern::Host& host, LoadShareNode& node,
    std::function<bool(sim::HostId)> ground_truth_idle)
    : HostSelector(host.cluster().sim().trace(), host.id()),
      host_(host),
      node_(node),
      ground_truth_(std::move(ground_truth_idle)) {}

void ProbabilisticSelector::request_hosts(int n, GrantCb cb) {
  note_request();
  const Time start = host_.cluster().sim().now();
  const Time now = start;
  const Time max_age = host_.cluster().costs().ls_entry_max_age;

  // Purely local decision from the (possibly stale) gossip vector.
  struct Cand {
    HostId host;
    double load;
  };
  std::vector<Cand> cands;
  for (const auto& [h, e] : node_.load_vector()) {
    if (h == host_.id() || !e.idle) continue;
    if (now - e.stamped > max_age) continue;
    cands.push_back({h, e.load});
  }
  std::sort(cands.begin(), cands.end(),
            [](const Cand& a, const Cand& b) { return a.load < b.load; });

  auto order = std::make_shared<std::vector<HostId>>();
  for (const auto& c : cands) order->push_back(c.host);
  auto got = std::make_shared<std::vector<HostId>>();
  try_reserve(order, 0, n, got, start, std::move(cb));
}

void ProbabilisticSelector::try_reserve(
    std::shared_ptr<std::vector<HostId>> cands, std::size_t i, int want,
    std::shared_ptr<std::vector<HostId>> got, Time start, GrantCb cb) {
  if (static_cast<int>(got->size()) >= want || i >= cands->size()) {
    note_grant_done(static_cast<std::int64_t>(got->size()),
                    (host_.cluster().sim().now() - start).ms());
    cb(*got);
    return;
  }
  const HostId target = (*cands)[i];
  auto body = std::make_shared<ReserveReq>();
  body->requester = host_.id();
  host_.rpc().call(
      target, ServiceId::kLoadShare, static_cast<int>(LsOp::kReserve), body,
      [this, cands, i, want, got, start, target,
       cb = std::move(cb)](util::Result<Reply> r) mutable {
        if (r.is_ok() && r->status.is_ok()) {
          got->push_back(target);
        } else {
          // Our vector said idle; the host disagreed — stale information.
          note_bad_grant();
        }
        try_reserve(cands, i + 1, want, got, start, std::move(cb));
      });
}

void ProbabilisticSelector::release_host(HostId h) {
  auto body = std::make_shared<ReserveReq>();
  body->requester = host_.id();
  host_.rpc().call(h, ServiceId::kLoadShare,
                   static_cast<int>(LsOp::kRelease), body,
                   [](util::Result<Reply>) {});
}

// ---------------------------------------------------------------------------
// MulticastSelector
// ---------------------------------------------------------------------------

MulticastSelector::MulticastSelector(
    kern::Host& host, LoadShareNode& node,
    std::function<bool(sim::HostId)> ground_truth_idle)
    : HostSelector(host.cluster().sim().trace(), host.id()),
      host_(host),
      node_(node),
      ground_truth_(std::move(ground_truth_idle)) {
  node_.set_offer_sink([this](const OfferReq& offer) {
    if (offer.seq != current_seq_) return;  // stale query
    offers_.push_back(offer.host);
  });
}

void MulticastSelector::request_hosts(int n, GrantCb cb) {
  note_request();
  const Time start = host_.cluster().sim().now();
  current_seq_ = next_seq_++;
  offers_.clear();

  auto body = std::make_shared<QueryIdleReq>();
  body->requester = host_.id();
  body->seq = current_seq_;
  host_.rpc().multicast(ServiceId::kLoadShare,
                        static_cast<int>(LsOp::kQueryIdle), body);

  // Collect offers for the backoff window plus slack, then reserve the
  // earliest respondents.
  const Time window =
      host_.cluster().costs().ls_multicast_backoff + Time::msec(15);
  host_.cluster().sim().after(window, [this, n, start, cb = std::move(cb)] {
    current_seq_ = 0;  // stop collecting
    auto offers = std::make_shared<std::vector<HostId>>(std::move(offers_));
    offers_.clear();
    auto got = std::make_shared<std::vector<HostId>>();
    reserve_offers(offers, 0, n, got, start, std::move(cb));
  });
}

void MulticastSelector::reserve_offers(
    std::shared_ptr<std::vector<HostId>> offers, std::size_t i, int want,
    std::shared_ptr<std::vector<HostId>> got, Time start, GrantCb cb) {
  if (static_cast<int>(got->size()) >= want || i >= offers->size()) {
    note_grant_done(static_cast<std::int64_t>(got->size()),
                    (host_.cluster().sim().now() - start).ms());
    cb(*got);
    return;
  }
  const HostId target = (*offers)[i];
  auto body = std::make_shared<ReserveReq>();
  body->requester = host_.id();
  host_.rpc().call(
      target, ServiceId::kLoadShare, static_cast<int>(LsOp::kReserve), body,
      [this, offers, i, want, got, start, target,
       cb = std::move(cb)](util::Result<Reply> r) mutable {
        if (r.is_ok() && r->status.is_ok()) {
          got->push_back(target);
        } else {
          // Another requester's query raced ours to this host.
          note_bad_grant();
        }
        reserve_offers(offers, i + 1, want, got, start, std::move(cb));
      });
}

void MulticastSelector::release_host(HostId h) {
  auto body = std::make_shared<ReserveReq>();
  body->requester = host_.id();
  host_.rpc().call(h, ServiceId::kLoadShare,
                   static_cast<int>(LsOp::kRelease), body,
                   [](util::Result<Reply>) {});
}

}  // namespace sprite::ls
