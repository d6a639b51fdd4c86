// Unit tests for the kernel-to-kernel RPC layer.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "rpc/rpc.h"
#include "sim/costs.h"
#include "sim/cpu.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace sprite::rpc {
namespace {

using sim::HostId;
using sim::Time;

struct IntBody : Message {
  explicit IntBody(int v) : value(v) {}
  int value;
  std::int64_t wire_bytes() const override { return 8; }
};

struct BigBody : Message {
  explicit BigBody(std::int64_t n) : bytes(n) {}
  std::int64_t bytes;
  std::int64_t wire_bytes() const override { return bytes; }
};

// Minimal multi-host rig: one Cpu + RpcNode per host on a shared network.
class Rig {
 public:
  explicit Rig(int n_hosts, sim::Costs costs = {})
      : costs_(costs), sim_(1), net_(sim_, costs_) {
    for (int i = 0; i < n_hosts; ++i) {
      auto cpu = std::make_unique<sim::Cpu>(sim_, costs_);
      cpus_.push_back(std::move(cpu));
    }
    for (int i = 0; i < n_hosts; ++i) {
      HostId id = net_.attach([this, i](const sim::Packet& p) {
        nodes_[static_cast<std::size_t>(i)]->handle_packet(p);
      });
      EXPECT_EQ(id, i);
      nodes_.push_back(std::make_unique<RpcNode>(
          sim_, net_, *cpus_[static_cast<std::size_t>(i)], id, costs_));
    }
  }

  RpcNode& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
  sim::Simulator& sim() { return sim_; }
  // Host `i`'s value of an rpc.* counter.
  std::int64_t counter(const std::string& name, HostId i) const {
    return sim_.trace().counter_value(name, i);
  }
  sim::Network& net() { return net_; }

 private:
  sim::Costs costs_;
  sim::Simulator sim_;
  sim::Network net_;
  std::vector<std::unique_ptr<sim::Cpu>> cpus_;
  std::vector<std::unique_ptr<RpcNode>> nodes_;
};

// Registers an echo service that doubles the integer it receives.
void register_doubler(RpcNode& n) {
  n.register_service(
      ServiceId::kEcho,
      [](HostId, const Request& req, std::function<void(Reply)> respond) {
        auto body = body_cast<IntBody>(req.body);
        ASSERT_TRUE(body);
        respond(Reply{util::Status::ok(),
                      std::make_shared<IntBody>(body->value * 2)});
      });
}

TEST(Rpc, RoundTripDeliversReply) {
  Rig rig(2);
  register_doubler(rig.node(1));
  int result = 0;
  rig.node(0).call(1, ServiceId::kEcho, 0, std::make_shared<IntBody>(21),
                   [&](util::Result<Reply> r) {
                     ASSERT_TRUE(r.is_ok());
                     result = body_cast<IntBody>(r->body)->value;
                   });
  rig.sim().run();
  EXPECT_EQ(result, 42);
}

TEST(Rpc, SmallRoundTripCostIsNearCalibration) {
  // The calibration target for a small kernel-to-kernel RPC is ~1.6 ms.
  Rig rig(2);
  register_doubler(rig.node(1));
  Time done;
  rig.node(0).call(1, ServiceId::kEcho, 0, std::make_shared<IntBody>(1),
                   [&](util::Result<Reply> r) {
                     ASSERT_TRUE(r.is_ok());
                     done = rig.sim().now();
                   });
  rig.sim().run();
  EXPECT_GT(done.ms(), 0.8);
  EXPECT_LT(done.ms(), 2.5);
}

TEST(Rpc, LocalCallBypassesNetwork) {
  Rig rig(1);
  register_doubler(rig.node(0));
  int result = 0;
  rig.node(0).call(0, ServiceId::kEcho, 0, std::make_shared<IntBody>(5),
                   [&](util::Result<Reply> r) {
                     ASSERT_TRUE(r.is_ok());
                     result = body_cast<IntBody>(r->body)->value;
                   });
  rig.sim().run();
  EXPECT_EQ(result, 10);
  EXPECT_EQ(rig.net().messages_sent(), 0);
}

TEST(Rpc, UnknownServiceFailsCleanly) {
  Rig rig(2);
  util::Err err = util::Err::kOk;
  rig.node(0).call(1, ServiceId::kEcho, 0, nullptr,
                   [&](util::Result<Reply> r) {
                     ASSERT_TRUE(r.is_ok());  // transport worked
                     err = r->status.err();
                   });
  rig.sim().run();
  EXPECT_EQ(err, util::Err::kNotSupported);
}

TEST(Rpc, DownServerTimesOutAfterRetries) {
  Rig rig(2);
  register_doubler(rig.node(1));
  rig.net().set_host_up(1, false);
  util::Err err = util::Err::kOk;
  rig.node(0).call(1, ServiceId::kEcho, 0, std::make_shared<IntBody>(1),
                   [&](util::Result<Reply> r) { err = r.err(); });
  rig.sim().run();
  EXPECT_EQ(err, util::Err::kTimedOut);
  EXPECT_GE(rig.counter("rpc.call.retransmitted", 0), 1);
  EXPECT_EQ(rig.counter("rpc.call.timedout", 0), 1);
}

TEST(Rpc, ServerRecoveringMidCallStillAnswers) {
  Rig rig(2);
  register_doubler(rig.node(1));
  rig.net().set_host_up(1, false);
  int result = 0;
  rig.node(0).call(1, ServiceId::kEcho, 0, std::make_shared<IntBody>(4),
                   [&](util::Result<Reply> r) {
                     ASSERT_TRUE(r.is_ok());
                     result = body_cast<IntBody>(r->body)->value;
                   });
  // Bring the server back before retries are exhausted.
  rig.sim().after(Time::msec(600), [&] { rig.net().set_host_up(1, true); });
  rig.sim().run();
  EXPECT_EQ(result, 8);
  EXPECT_GE(rig.counter("rpc.call.retransmitted", 0), 1);
}

TEST(Rpc, AtMostOnceDespiteDuplicateDelivery) {
  // A slow (asynchronous) handler plus a retransmission must not execute the
  // handler twice.
  Rig rig(2);
  int executions = 0;
  rig.node(1).register_service(
      ServiceId::kEcho,
      [&](HostId, const Request&, std::function<void(Reply)> respond) {
        ++executions;
        // Respond only after the client has had time to retransmit.
        rig.sim().after(Time::msec(700), [respond = std::move(respond)] {
          respond(Reply{util::Status::ok(), nullptr});
        });
      });
  int replies = 0;
  rig.node(0).call(1, ServiceId::kEcho, 0, nullptr,
                   [&](util::Result<Reply> r) {
                     EXPECT_TRUE(r.is_ok());
                     ++replies;
                   });
  rig.sim().run();
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(replies, 1);
  EXPECT_GE(rig.counter("rpc.call.retransmitted", 0), 1);
}

TEST(Rpc, ManyConcurrentCallsAllComplete) {
  Rig rig(4);
  for (int s = 1; s < 4; ++s) register_doubler(rig.node(s));
  int completed = 0;
  for (int i = 0; i < 300; ++i) {
    const HostId dst = 1 + (i % 3);
    rig.node(0).call(dst, ServiceId::kEcho, 0, std::make_shared<IntBody>(i),
                     [&, i](util::Result<Reply> r) {
                       ASSERT_TRUE(r.is_ok());
                       EXPECT_EQ(body_cast<IntBody>(r->body)->value, 2 * i);
                       ++completed;
                     });
  }
  rig.sim().run();
  EXPECT_EQ(completed, 300);
}

TEST(Rpc, BulkPayloadTakesBandwidthTime) {
  Rig rig(2);
  rig.node(1).register_service(
      ServiceId::kEcho,
      [](HostId, const Request&, std::function<void(Reply)> respond) {
        respond(Reply{util::Status::ok(), nullptr});
      });
  Time done;
  const std::int64_t megabyte = 1 << 20;
  rig.node(0).call(1, ServiceId::kEcho, 0, std::make_shared<BigBody>(megabyte),
                   [&](util::Result<Reply> r) {
                     ASSERT_TRUE(r.is_ok());
                     done = rig.sim().now();
                   });
  rig.sim().run();
  // The round trip must be dominated by the payload's wire time.
  const double wire_ms = sim::Costs{}.wire_time(megabyte).ms();
  EXPECT_GT(done.ms(), wire_ms);
  EXPECT_LT(done.ms(), wire_ms * 1.2);
}

TEST(Rpc, StatsCountServedRequests) {
  Rig rig(2);
  register_doubler(rig.node(1));
  for (int i = 0; i < 5; ++i) {
    rig.node(0).call(1, ServiceId::kEcho, 0, std::make_shared<IntBody>(i),
                     [](util::Result<Reply>) {});
  }
  rig.sim().run();
  EXPECT_EQ(rig.counter("rpc.call.started", 0), 5);
  EXPECT_EQ(rig.counter("rpc.request.served", 1), 5);
}

}  // namespace
}  // namespace sprite::rpc
