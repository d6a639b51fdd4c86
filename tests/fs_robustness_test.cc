// FS robustness: cache-capacity eviction, delayed writes surviving close,
// cold reads paying disk latency, server crash visibility, RPC dedup under
// load, and zero runs (page flushes) under the integrity contract.
#include <gtest/gtest.h>

#include "fs/client.h"
#include "fs/server.h"
#include "kern/cluster.h"
#include "sim/fault.h"
#include "sim/time.h"
#include "vm/vm.h"

namespace sprite::fs {
namespace {

using kern::Cluster;
using sim::Time;
using util::Err;
using util::Status;

StreamPtr open_blocking(Cluster& cluster, sim::HostId h,
                        const std::string& path, OpenFlags flags) {
  StreamPtr out;
  bool done = false;
  cluster.host(h).fs().open(path, flags, [&](util::Result<StreamPtr> r) {
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    if (r.is_ok()) out = *r;
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  return out;
}

Bytes read_blocking(Cluster& cluster, sim::HostId h, const StreamPtr& s,
                    std::int64_t len) {
  Bytes out;
  bool done = false;
  cluster.host(h).fs().read(s, len, [&](util::Result<Bytes> r) {
    EXPECT_TRUE(r.is_ok());
    if (r.is_ok()) out = std::move(*r);
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  return out;
}

TEST(FsCapacityTest, ClientCacheEvictsUnderPressureWithoutDataLoss) {
  // A tiny client cache (16 blocks): reading a 64-block file sweeps the
  // cache several times; integrity must survive the evictions.
  kern::Cluster::Config config{.num_workstations = 1, .num_file_servers = 1};
  config.costs.fs_client_cache_blocks = 16;
  Cluster cluster(config);
  auto* server = cluster.file_server().fs_server();

  // Seed known contents directly at the server.
  auto id = server->create_file("/big", 0);
  ASSERT_TRUE(id.is_ok());
  {
    // Write through a client once (fills and overflows the cache).
    auto s = open_blocking(cluster, 1, "/big", OpenFlags::read_write());
    Bytes data(64 * 4096);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::uint8_t>((i / 4096 + i) & 0xff);
    bool done = false;
    cluster.host(1).fs().write(s, data, [&](util::Result<std::int64_t> r) {
      ASSERT_TRUE(r.is_ok());
      done = true;
    });
    cluster.run_until_done([&] { return done; });
    done = false;
    cluster.host(1).fs().fsync(s, [&](Status) { done = true; });
    cluster.run_until_done([&] { return done; });

    // Read it all back through the same (small) cache.
    cluster.host(1).fs().seek(s, 0);
    Bytes got = read_blocking(cluster, 1, s, 64 * 4096);
    ASSERT_EQ(got.size(), data.size());
    EXPECT_EQ(got, data);
  }
  // The cache respected its capacity: of the 64 blocks read back, only the
  // ~16 still resident after the write sweep could hit.
  EXPECT_GE(cluster.sim().trace().counter_value("fs.client.block.miss", 1), 48);
}

TEST(FsDelayedWriteTest, DirtyDataSurvivesCloseAndFlushesLater) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1});
  auto* server = cluster.file_server().fs_server();
  auto s = open_blocking(cluster, 1, "/later", OpenFlags::create_rw());
  bool done = false;
  Bytes payload{'d', 'a', 't', 'a'};
  cluster.host(1).fs().write(s, payload, [&](util::Result<std::int64_t> r) {
    ASSERT_TRUE(r.is_ok());
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  done = false;
  cluster.host(1).fs().close(s, [&](Status) { done = true; });
  cluster.run_until_done([&] { return done; });

  // Closed, but the delayed write has not fired: server sees nothing yet.
  auto st = server->stat_path("/later");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->size, 0);

  // After the 30 s delay it lands.
  cluster.sim().run_until(cluster.sim().now() + Time::sec(31));
  st = server->stat_path("/later");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->size, 4);
}

TEST(FsDiskLatencyTest, ColdServerReadsPayDiskWarmOnesDoNot) {
  // Shrink the server cache so the file cannot fit, then read it twice.
  kern::Cluster::Config config{.num_workstations = 1, .num_file_servers = 1};
  config.costs.fs_server_cache_blocks = 4;
  Cluster cluster(config);
  auto* server = cluster.file_server().fs_server();
  server->create_file("/cold", 16 * 4096);

  OpenFlags flags = OpenFlags::read_only();
  flags.no_cache = true;  // bypass the client cache: hit the server each time
  auto s = open_blocking(cluster, 1, "/cold", flags);
  auto disk_accesses = [&] {
    return cluster.sim().trace().counter_value("fs.server.disk.accessed",
                                               cluster.file_server().id());
  };

  const auto disk_before = disk_accesses();
  const Time t0 = cluster.sim().now();
  read_blocking(cluster, 1, s, 16 * 4096);
  const double cold_ms = (cluster.sim().now() - t0).ms();
  EXPECT_GT(disk_accesses(), disk_before);
  // 16 blocks, mostly misses at 15 ms each: disk dominates.
  EXPECT_GT(cold_ms, 100.0);

  // A 4-block re-read fits the LRU tail and can be served warm.
  cluster.host(1).fs().seek(s, 12 * 4096);
  const auto disk_mid = disk_accesses();
  const Time t1 = cluster.sim().now();
  read_blocking(cluster, 1, s, 4 * 4096);
  const double warm_ms = (cluster.sim().now() - t1).ms();
  EXPECT_EQ(disk_accesses(), disk_mid);  // all cached
  EXPECT_LT(warm_ms, cold_ms / 4);
}

TEST(FsServerDownTest, OperationsFailWithTimeoutsNotHangs) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1});
  cluster.file_server().fs_server()->create_file("/there", 128);
  auto s = open_blocking(cluster, 1, "/there", OpenFlags::read_only());

  cluster.net().set_host_up(cluster.file_server().id(), false);
  bool done = false;
  Err err = Err::kOk;
  // Bypass the cache so the read must reach the (dead) server.
  OpenFlags nf = OpenFlags::read_only();
  nf.no_cache = true;
  cluster.host(1).fs().open("/there", nf, [&](util::Result<StreamPtr> r) {
    err = r.err();
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  EXPECT_EQ(err, Err::kTimedOut);
  (void)s;
}

TEST(FsServerDownTest, ReplicatedInflightOpsConvergeInsteadOfFailing) {
  // Same shape as OperationsFailWithTimeoutsNotHangs, but with a backup
  // replica: the in-flight open parks under suspicion, the down verdict
  // promotes the backup and flips the client's route, and the retried call
  // succeeds there — the caller never sees the crash.
  Cluster cluster(
      {.num_workstations = 2, .num_file_servers = 1, .fs_replicas = 2});
  cluster.file_server().fs_server()->create_file("/there", 128);
  cluster.fs_backup().fs_server()->create_file("/there", 128);
  const sim::HostId ws = cluster.workstations()[0];
  auto s = open_blocking(cluster, ws, "/there", OpenFlags::read_only());
  ASSERT_TRUE(s);

  cluster.crash_host(cluster.file_server().id());
  bool done = false;
  Err err = Err::kAgain;
  OpenFlags nf = OpenFlags::read_only();
  nf.no_cache = true;
  cluster.host(ws).fs().open("/there", nf, [&](util::Result<StreamPtr> r) {
    err = r.err();
    if (r.is_ok()) {
      EXPECT_EQ((*r)->file.server, cluster.fs_backup().id());
    }
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  EXPECT_EQ(err, Err::kOk);
  EXPECT_TRUE(cluster.fs_backup().fs_server()->is_primary());
}

TEST(FsWritebackCoalescingTest, FlushBatchesContiguousDirtyBlocks) {
  Cluster cluster({.num_workstations = 1, .num_file_servers = 1});
  auto s = open_blocking(cluster, 1, "/batch", OpenFlags::create_rw());
  bool done = false;
  // 64 KB of contiguous dirty data = 16 blocks; at 16 KB per transfer the
  // flush needs exactly 4 write RPCs, not 16.
  cluster.host(1).fs().write(s, Bytes(64 * 1024, 'b'),
                             [&](util::Result<std::int64_t> r) {
                               ASSERT_TRUE(r.is_ok());
                               done = true;
                             });
  cluster.run_until_done([&] { return done; });
  const trace::Registry& tr = cluster.sim().trace();
  const auto writes_before = tr.counter_value("fs.client.write.sent", 1);
  done = false;
  cluster.host(1).fs().fsync(s, [&](Status) { done = true; });
  cluster.run_until_done([&] { return done; });
  EXPECT_EQ(tr.counter_value("fs.client.write.sent", 1) - writes_before, 4);
}

// ---------------------------------------------------------------------------
// Zero runs: a page flush writes Extent::zeros, which the server stores and
// journals without bytes under a closed-form checksum. Every fault that needs
// the bytes must still be caught exactly as for real bytes.
// ---------------------------------------------------------------------------

TEST(FsZeroRunTest, ClosedFormSumMatchesMaterializedZeros) {
  for (std::int64_t n : {1, 4095, 4096, 16384})
    EXPECT_EQ(FsServer::block_sum(Extent::zeros(n)),
              FsServer::block_sum(Bytes(static_cast<std::size_t>(n), 0)))
        << n << " zeros";
}

// An address space on `ws` whose `pages` heap pages were written, flushed to
// the file server in one run and dropped from memory: the next touch pages
// them back in from the swap file.
vm::SpacePtr flushed_space(Cluster& cluster, sim::HostId ws,
                           std::int64_t pages) {
  auto* srv = cluster.file_server().fs_server();
  SPRITE_CHECK(srv->mkdir_p("/bin").is_ok());
  SPRITE_CHECK(srv->create_file("/bin/prog", 4 * 4096).is_ok());
  vm::VmManager& vmm = cluster.host(ws).vm();
  vm::SpacePtr sp;
  Status st(Err::kAgain);
  bool done = false;
  vmm.create_space("/bin/prog", 4, pages, 1,
                   [&](util::Result<vm::SpacePtr> r) {
                     st = r.is_ok() ? Status::ok() : r.status();
                     if (r.is_ok()) sp = *r;
                     done = true;
                   });
  cluster.run_until_done([&] { return done; });
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  for (bool flush : {false, true}) {
    done = false;
    auto cb = [&](Status s) {
      st = s;
      done = true;
    };
    if (flush)
      vmm.flush_dirty(sp, cb);
    else
      vmm.touch(sp, vm::Segment::kHeap, 0, pages, /*write=*/true, cb);
    cluster.run_until_done([&] { return done; });
    EXPECT_TRUE(st.is_ok()) << st.to_string();
  }
  vmm.invalidate(sp);
  return sp;
}

Status page_in(Cluster& cluster, sim::HostId ws, const vm::SpacePtr& sp,
               std::int64_t page) {
  Status out(Err::kAgain);
  bool done = false;
  cluster.host(ws).vm().touch(sp, vm::Segment::kHeap, page, 1,
                              /*write=*/false, [&](Status s) {
                                out = s;
                                done = true;
                              });
  cluster.run_until_done([&] { return done; });
  return out;
}

std::int64_t server_counter(Cluster& cluster, const char* name) {
  return cluster.sim().trace().counter(name, cluster.file_server().id())
      .value();
}

TEST(FsZeroRunTest, CorruptSwapBlockFailsPageInUntilRepairedFromReplica) {
  for (int replicas : {1, 2}) {
    SCOPED_TRACE(testing::Message() << replicas << " replica(s)");
    Cluster cluster({.num_workstations = 1,
                     .num_file_servers = 1,
                     .fs_replicas = replicas});
    const sim::HostId ws = cluster.workstations()[0];
    // The flushed swap blocks are the only stored blocks, so the plan's
    // draw always picks one of them.
    auto sp = flushed_space(cluster, ws, 4);
    auto* srv = cluster.file_server().fs_server();
    sim::FaultPlan plan(cluster.sim(), cluster.net());
    plan.corrupt_block(cluster.file_server().id(),
                       cluster.sim().now() + Time::msec(1), 0x5eedULL);
    plan.arm({.corrupt = [srv](sim::HostId, std::uint64_t d) {
      srv->inject_bit_flip(d);
    }});
    cluster.sim().run_until(cluster.sim().now() + Time::msec(2));

    int corrupt_pages = 0;
    for (std::int64_t p = 0; p < 4; ++p) {
      const Status st = page_in(cluster, ws, sp, p);
      if (st.err() == Err::kCorrupt)
        ++corrupt_pages;
      else
        EXPECT_TRUE(st.is_ok()) << st.to_string();
    }
    EXPECT_EQ(corrupt_pages, 1) << "the flipped swap block must not read";
    cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
    const Status again = [&] {
      for (std::int64_t p = 0; p < 4; ++p)
        if (Status st = page_in(cluster, ws, sp, p); !st.is_ok()) return st;
      return Status::ok();
    }();
    if (replicas == 1) {
      EXPECT_EQ(again.err(), Err::kCorrupt) << "no replica, no repair";
      EXPECT_EQ(server_counter(cluster, "fs.scrub.repaired"), 0);
    } else {
      EXPECT_TRUE(again.is_ok()) << again.to_string();
      EXPECT_EQ(server_counter(cluster, "fs.scrub.repaired"), 1);
    }
  }
}

TEST(FsZeroRunTest, TornPageFlushReplaysIntactRecordAndDiscardsTornOne) {
  // The flush is one 16 KB write: four blocks. Draw 2 keeps two of them and
  // leaves the journal record intact; draw 1 keeps one and tears the record.
  for (std::uint64_t draw : {2u, 1u}) {
    SCOPED_TRACE(testing::Message() << "draw " << draw);
    Cluster cluster({.num_workstations = 1, .num_file_servers = 1});
    const sim::HostId ws = cluster.workstations()[0];
    const sim::HostId server = cluster.file_server().id();
    auto sp = flushed_space(cluster, ws, 4);
    auto* srv = cluster.file_server().fs_server();
    sim::FaultPlan plan(cluster.sim(), cluster.net());
    plan.torn_crash(server, cluster.sim().now() + Time::msec(1), Time::sec(1),
                    draw);
    plan.arm({.crash = [&](sim::HostId h) { cluster.crash_host(h); },
              .reboot = [&](sim::HostId h) { cluster.reboot_host(h); },
              .torn = [srv](sim::HostId, std::uint64_t d) {
                srv->tear_last_write(d);
              }});
    cluster.sim().run_until(cluster.sim().now() + Time::sec(5));

    const bool intact = (draw & 1u) == 0;
    EXPECT_EQ(server_counter(cluster, "fs.journal.replayed"), intact ? 1 : 0);
    EXPECT_EQ(server_counter(cluster, "fs.journal.discarded"), intact ? 0 : 1);
    const auto keep = static_cast<std::int64_t>(draw % 4);
    for (std::int64_t p = 0; p < 4; ++p) {
      const Status st = page_in(cluster, ws, sp, p);
      if (intact || p < keep)
        EXPECT_TRUE(st.is_ok()) << "page " << p << ": " << st.to_string();
      else
        EXPECT_EQ(st.err(), Err::kCorrupt) << "page " << p << " read garbage";
    }

    // Whole or kCorrupt through the plain read path too: a replayed run
    // reads back at full length, a discarded one never reads as zeros.
    OpenFlags nf = OpenFlags::read_only();
    nf.no_cache = true;
    auto s = open_blocking(
        cluster, ws, sp->segment(vm::Segment::kHeap).backing_path, nf);
    ASSERT_TRUE(s);
    util::Result<Bytes> r(Err::kAgain);
    bool done = false;
    cluster.host(ws).fs().read(s, 4 * 4096, [&](util::Result<Bytes> got) {
      r = std::move(got);
      done = true;
    });
    cluster.run_until_done([&] { return done; });
    if (intact) {
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      EXPECT_EQ(*r, Bytes(4 * 4096, 0));
    } else {
      EXPECT_EQ(r.err(), Err::kCorrupt);
    }
  }
}

// ---------------------------------------------------------------------------
// Reads through a server-managed offset take the same integrity path as
// plain reads.
// ---------------------------------------------------------------------------

TEST(FsServerOffsetTest, ReadOverFlippedBlockIsRepairedFromReplica) {
  Cluster cluster(
      {.num_workstations = 2, .num_file_servers = 1, .fs_replicas = 2});
  const sim::HostId ws0 = cluster.workstations()[0];
  const sim::HostId ws1 = cluster.workstations()[1];
  const Bytes data(static_cast<std::size_t>(cluster.costs().block_size), 'g');
  {
    auto w = open_blocking(cluster, ws0, "/shared", OpenFlags::create_rw());
    bool done = false;
    cluster.host(ws0).fs().write(w, data, [&](util::Result<std::int64_t> r) {
      EXPECT_TRUE(r.is_ok());
      done = true;
    });
    cluster.run_until_done([&] { return done; });
    done = false;
    cluster.host(ws0).fs().close(w, [&](Status) { done = true; });
    cluster.run_until_done([&] { return done; });
  }
  // Sharing the stream with another host moves its offset to the server, so
  // reads become kGroupRead.
  auto s = open_blocking(cluster, ws0, "/shared", OpenFlags::read_only());
  bool done = false;
  cluster.host(ws0).fs().export_stream(
      s, ws1, /*shared_on_source=*/true,
      [&](util::Result<ExportedStream> r) {
        EXPECT_TRUE(r.is_ok());
        done = true;
      });
  cluster.run_until_done([&] { return done; });
  ASSERT_TRUE(s->server_offset);

  // The file's block is the only stored one, so it takes the flip.
  auto* srv = cluster.file_server().fs_server();
  srv->inject_bit_flip(0);
  auto read = [&] {
    util::Result<Bytes> out(Err::kAgain);
    bool read_done = false;
    cluster.host(ws0).fs().read(s, static_cast<std::int64_t>(data.size()),
                                [&](util::Result<Bytes> r) {
                                  out = std::move(r);
                                  read_done = true;
                                });
    cluster.run_until_done([&] { return read_done; });
    return out;
  };
  EXPECT_EQ(read().err(), Err::kCorrupt);
  EXPECT_EQ(srv->group_offset(s->file, s->group), 0);
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  EXPECT_EQ(server_counter(cluster, "fs.scrub.repaired"), 1);
  auto again = read();
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_EQ(*again, data);
  EXPECT_EQ(srv->group_offset(s->file, s->group),
            static_cast<std::int64_t>(data.size()));
}

}  // namespace
}  // namespace sprite::fs
