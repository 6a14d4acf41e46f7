// Tests for the sPIN NIC model: DMA engine timing and data movement, the
// HER scheduler (default and blocked-RR), NIC memory accounting, and the
// end-to-end receive paths (RDMA and handler-processed).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "fabric/fabric.hpp"
#include "p4/put.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "spin/nic.hpp"
#include "spin/nic_memory.hpp"

namespace netddt::spin {
namespace {

std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>(i * 7 + 1);
  return v;
}

TEST(NicMemory, AllocFreeAccounting) {
  NicMemory mem(1000);
  const auto a = mem.alloc(400, "a");
  ASSERT_NE(a, NicMemory::kInvalid);
  EXPECT_EQ(mem.used(), 400u);
  const auto b = mem.alloc(600, "b");
  ASSERT_NE(b, NicMemory::kInvalid);
  EXPECT_EQ(mem.available(), 0u);
  EXPECT_EQ(mem.alloc(1, "c"), NicMemory::kInvalid);
  mem.free(a);
  EXPECT_EQ(mem.used(), 600u);
  EXPECT_EQ(mem.peak(), 1000u);
  EXPECT_NE(mem.alloc(300, "d"), NicMemory::kInvalid);
}

TEST(NicMemory, DoubleFreeViolatesCheck) {
  NicMemory mem(1000);
  const auto a = mem.alloc(100, "a");
  mem.free(a);
  EXPECT_THROW(mem.free(a), sim::check::Violation);
  EXPECT_EQ(mem.used(), 0u);
}

TEST(NicMemory, ZeroByteAllocsCountedSeparately) {
  NicMemory mem(1000);
  const auto z = mem.alloc(0, "marker");
  ASSERT_NE(z, NicMemory::kInvalid);
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_EQ(mem.zero_byte_allocs(), 1u);
  EXPECT_EQ(mem.allocations(), 1u);
  mem.free(z);
  EXPECT_EQ(mem.allocations(), 0u);
  EXPECT_EQ(mem.zero_byte_allocs(), 1u) << "counter, not a gauge";
}

TEST(NicMemory, PeakBlocksTracksHighWaterMark) {
  NicMemory mem(1000);
  const auto a = mem.alloc(100, "a");
  const auto b = mem.alloc(100, "b");
  mem.free(a);
  const auto c = mem.alloc(100, "c");
  EXPECT_EQ(mem.peak_blocks(), 2u);
  mem.free(b);
  mem.free(c);
  EXPECT_EQ(mem.peak_blocks(), 2u);
}

TEST(NicMemory, RejectPolicyNeverEvicts) {
  // Until an owner enables eviction, a full scratchpad rejects the
  // request: an evictable block stays, and the failure is a plain
  // alloc failure, not an admission reject.
  sim::MetricsRegistry reg;
  NicMemory mem(1000, &reg);
  mem.alloc(800, "a", {.evictable = true});
  EXPECT_EQ(mem.alloc(400, "b"), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 0u);
  EXPECT_EQ(mem.admission_rejects(), 0u);
  EXPECT_EQ(reg.snapshot().counters.at("nic.mem.alloc_failures"), 1u);
}

TEST(NicMemory, LruEvictsLeastRecentlyTouched) {
  NicMemory mem(1000);
  std::vector<std::string> evicted;
  mem.enable_eviction([&](NicMemory::Handle, const std::string& tag) {
    evicted.push_back(tag);
  });
  const auto a = mem.alloc(400, "a", {.evictable = true});
  mem.alloc(400, "b", {.evictable = true});
  mem.touch(a);  // b is now the LRU block
  ASSERT_NE(mem.alloc(500, "c"), NicMemory::kInvalid);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "b");
  EXPECT_EQ(mem.evictions(), 1u);
}

TEST(NicMemory, EvictionStaysOnAfterOwnerDetaches) {
  // The facade's destructor detaches its callback; blocks it left
  // behind stay reclaimable, oldest first.
  sim::MetricsRegistry reg;
  NicMemory mem(1000, &reg);
  int seen = 0;
  mem.enable_eviction([&](NicMemory::Handle, const std::string&) { ++seen; });
  EXPECT_EQ(reg.snapshot().gauges.count("nic.mem.peak_blocks"), 1u);
  mem.alloc(200, "old", {.evictable = true});
  mem.alloc(600, "young", {.evictable = true});
  mem.enable_eviction({});
  ASSERT_NE(mem.alloc(300, "new"), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 1u);
  EXPECT_EQ(mem.used(), 900u) << "LRU takes the old block, not the large";
  EXPECT_EQ(seen, 0);
}

TEST(NicMemory, PinFencesAgainstEviction) {
  NicMemory mem(1000);
  mem.enable_eviction({});
  const auto a = mem.alloc(600, "a", {.evictable = true});
  mem.pin(a);
  EXPECT_TRUE(mem.is_pinned(a));
  EXPECT_EQ(mem.alloc(600, "b"), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 0u);
  mem.unpin(a);
  ASSERT_NE(mem.alloc(600, "b"), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 1u);
}

TEST(NicMemory, PriorityCeilingLimitsVictims) {
  NicMemory mem(1000);
  mem.enable_eviction({});
  mem.alloc(800, "vip", {.priority = 5, .evictable = true});
  // A low-priority requester may not evict the high-priority block...
  EXPECT_EQ(mem.alloc(400, "low", {.priority = 0}), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 0u);
  // ...but an equal-priority one may.
  ASSERT_NE(mem.alloc(400, "peer", {.priority = 5}), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 1u);
}

TEST(NicMemory, OversizedRequestFailsWithoutEvicting) {
  NicMemory mem(1000);
  mem.enable_eviction({});
  mem.alloc(400, "a", {.evictable = true});
  EXPECT_EQ(mem.alloc(2000, "huge"), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 0u) << "cannot ever fit: evicting is waste";
  EXPECT_EQ(mem.used(), 400u);
}

TEST(NicMemory, LazyMetricsAbsentWithoutPolicyOrEvent) {
  sim::MetricsRegistry reg;
  NicMemory mem(1000, &reg);
  mem.alloc(100, "a");
  const auto snap = reg.snapshot();
  EXPECT_NE(snap.counters.count("nic.mem.allocs"), 0u);
  EXPECT_EQ(snap.counters.count("nic.mem.evictions"), 0u);
  EXPECT_EQ(snap.counters.count("nic.mem.admission_rejects"), 0u);
  EXPECT_EQ(snap.counters.count("nic.mem.zero_byte_allocs"), 0u);
  EXPECT_EQ(snap.gauges.count("nic.mem.peak_blocks"), 0u);
}

TEST(Dma, WritesLandInHostMemory) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(4096, std::byte{0});
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(256);
  dma.write(100, src, false, 1);
  eng.run();
  EXPECT_TRUE(dma.drained());
  EXPECT_EQ(std::memcmp(host.data() + 100, src.data(), 256), 0);
  EXPECT_EQ(dma.total_writes(), 1u);
  EXPECT_EQ(dma.total_bytes(), 256u);
}

TEST(Dma, CompletionAfterServiceAndLatency) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(64);
  DmaEngine dma(eng, cost, host);
  sim::Time done = -1;
  dma.set_completion_callback(
      [&](std::uint64_t, sim::Time when) { done = when; });
  const auto src = pattern(1);
  dma.write(0, src, true, 7);
  eng.run();
  // 1 B: request service + PCIe transfer + write latency.
  const sim::Time expect =
      cost.dma_service(1) + cost.pcie_write_latency;
  EXPECT_EQ(done, expect);
}

TEST(Dma, QueueDepthTracksBacklog) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(1 << 16);
  DmaEngine dma(eng, cost, host);
  sim::trace::TraceConfig tc;
  tc.events = true;
  sim::trace::Tracer tracer(tc);
  dma.set_tracer(&tracer);
  const auto src = pattern(4096);
  // Enqueue 10 requests at t=0: they serialize through the engine.
  for (int i = 0; i < 10; ++i) {
    dma.write(i * 4096, std::span(src).subspan(0, 4096), false, 1);
  }
  eng.run();
  EXPECT_EQ(dma.max_queue_depth(), 10u);
  EXPECT_EQ(dma.total_writes(), 10u);
  EXPECT_FALSE(dma.depth_trace().empty());
  EXPECT_FALSE(tracer.events().empty());
}

TEST(Dma, ServiceRateMatchesPcieBandwidth) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(1 << 20);
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(1 << 16);
  const int n = 16;
  for (int i = 0; i < n; ++i) dma.write(0, src, false, 1);
  const sim::Time end = eng.run();
  const sim::Time min_expected =
      n * (cost.dma_req_service + cost.pcie_transfer(1 << 16));
  EXPECT_GE(end, min_expected);
}

// (time, msg) of every traced "landed" instant, in landing order.
std::vector<std::pair<sim::Time, std::int64_t>> landings(
    const sim::trace::Tracer& tracer) {
  std::vector<std::pair<sim::Time, std::int64_t>> out;
  for (const auto& ev : tracer.events()) {
    if (ev.ph == 'i' && std::strcmp(ev.name, "landed") == 0) {
      out.emplace_back(ev.ts, ev.msg);
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

TEST(DmaFifo, ServesByArrivalNotIssueOrder) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(256);
  DmaEngine dma(eng, cost, host);
  std::vector<std::pair<std::uint64_t, sim::Time>> done;
  dma.set_completion_callback(
      [&](std::uint64_t id, sim::Time when) { done.emplace_back(id, when); });
  const auto src = pattern(64);
  const sim::Time early = sim::ns(10);
  // Issuer A posts first for a later instant; issuer B posts second for
  // an earlier one. B arrives first, so B is served first and A queues
  // behind B's service window.
  dma.write_at(early + 1, 0, src, true, /*msg_id=*/1);
  dma.write_at(early, 64, src, true, /*msg_id=*/2);
  eng.run();
  const sim::Time s = cost.dma_service(64);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], std::make_pair(std::uint64_t{2},
                                    early + s + cost.pcie_write_latency));
  EXPECT_EQ(done[1], std::make_pair(std::uint64_t{1},
                                    early + 2 * s + cost.pcie_write_latency));
}

TEST(DmaFifo, PlainWriteAfterRmwLandsFirstWithBothEffects) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(128, std::byte{3});
  DmaEngine dma(eng, cost, host);
  sim::trace::TraceConfig tc;
  tc.events = true;
  sim::trace::Tracer tracer(tc);
  dma.set_tracer(&tracer);
  const auto rmw_src = pattern(64);
  const auto plain_src = pattern(128);
  dma.write_rmw_at(0, 0, rmw_src, ReduceOp::kSum, ElemType::kInt8, 1);
  dma.write_at(0, 64, std::span(plain_src).subspan(64), false, 2);
  const sim::Time end = eng.run();

  // The plain write is served second but skips the RMW read turnaround.
  const sim::Time rmw_done = cost.dma_rmw_service(64);
  const sim::Time rmw_land =
      rmw_done + cost.pcie_write_latency + cost.pcie_rmw_turnaround;
  const sim::Time plain_land =
      rmw_done + cost.dma_service(64) + cost.pcie_write_latency;
  ASSERT_LT(plain_land, rmw_land);
  const auto landed = landings(tracer);
  ASSERT_EQ(landed.size(), 2u);
  EXPECT_EQ(landed[0], std::make_pair(plain_land, std::int64_t{2}));
  EXPECT_EQ(landed[1], std::make_pair(rmw_land, std::int64_t{1}));
  EXPECT_EQ(end, rmw_land);

  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(host[i], static_cast<std::byte>(
                           3 + static_cast<unsigned>(rmw_src[i])))
        << i;
  }
  EXPECT_EQ(std::memcmp(host.data() + 64, plain_src.data() + 64, 64), 0);
}

TEST(DmaFifo, SimultaneousArrivalsPeakAtN) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(1 << 12);
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(128);
  constexpr int kN = 7;
  const sim::Time at = sim::ns(50);
  for (int i = 0; i < kN; ++i) dma.write_at(at, i * 128, src, false, 1);
  eng.run_until(at + 1);
  EXPECT_EQ(dma.queue_depth(), static_cast<std::size_t>(kN));
  eng.run();
  EXPECT_EQ(dma.max_queue_depth(), static_cast<std::size_t>(kN));
  EXPECT_EQ(dma.queue_depth(), 0u);
}

TEST(DmaFifo, SignalFiresAtBeginPlusServicePlusLatency) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(1 << 13);
  DmaEngine dma(eng, cost, host);
  sim::Time done = -1;
  dma.set_completion_callback(
      [&](std::uint64_t, sim::Time when) { done = when; });
  const auto big = pattern(4096);
  const auto small = pattern(64);
  dma.write(0, big, false, 1);
  // Arrives while the 4 KiB write is in service, so it begins when that
  // service ends.
  dma.write_at(sim::ns(1), 4096, small, true, 2);
  eng.run();
  const sim::Time begin = cost.dma_service(4096);
  ASSERT_GT(begin, sim::ns(1));
  EXPECT_EQ(done, begin + cost.dma_service(64) + cost.pcie_write_latency);
}

TEST(DmaFifo, RunEndsAtLastUnsignalledLanding) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(1 << 12);
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(512);
  dma.write_at(sim::ns(5), 0, src, false, 1);
  dma.write_at(sim::ns(5), 512, src, false, 1);
  const sim::Time end = eng.run();
  EXPECT_EQ(end, sim::ns(5) + 2 * cost.dma_service(512) +
                     cost.pcie_write_latency);
  EXPECT_EQ(eng.now(), end);
}

TEST(DmaFifo, DrainedOnlyOnceEverythingLanded) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(1 << 12);
  DmaEngine dma(eng, cost, host);
  EXPECT_TRUE(dma.drained());
  const auto src = pattern(256);
  dma.write(0, src, false, 1);
  const sim::Time land = cost.dma_service(256) + cost.pcie_write_latency;
  eng.run_until(land - 1);
  EXPECT_FALSE(dma.drained());
  eng.run_until(land);
  EXPECT_TRUE(dma.drained());
  eng.run();
  EXPECT_TRUE(dma.drained());
  EXPECT_EQ(eng.now(), land);
}

TEST(DmaFifo, InterleavedWriteRunsServeInTimeThenIssueOrder) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(1 << 12, std::byte{3});
  DmaEngine dma(eng, cost, host);
  sim::trace::TraceConfig tc;
  tc.events = true;
  sim::trace::Tracer tracer(tc);
  dma.set_tracer(&tracer);
  const auto a = pattern(256);
  const auto b = pattern(512);
  const std::span<const std::byte> b_hi = std::span(b).subspan(256);
  // Two handlers dispatched at t=0, each issuing its own run; the runs
  // interleave in time and tie at 30 ns, where the earlier-issued RMW
  // (msg 2) goes first and the plain write (msg 5) then overwrites the
  // same bytes.
  eng.schedule_at(0, [&] {
    dma.write_at(sim::ns(10), 0, a, false, 1);
    dma.write_rmw_at(sim::ns(30), 512, a, ReduceOp::kSum, ElemType::kInt8,
                     2);
    dma.write_at(sim::ns(50), 1024, a, false, 3);
  });
  eng.schedule_at(0, [&] {
    dma.write_rmw_at(sim::ns(20), 256, a, ReduceOp::kSum, ElemType::kInt8,
                     4);
    dma.write_at(sim::ns(30), 512, b_hi, false, 5);
    dma.write_at(sim::ns(40), 768, a, false, 6);
  });
  const sim::Time end = eng.run();

  // Serve in (arrival, issue) order through the analytic FIFO by hand.
  const sim::Time plain = cost.dma_service(256);
  const sim::Time rmw = cost.dma_rmw_service(256);
  const sim::Time lat = cost.pcie_write_latency;
  const sim::Time turn = cost.pcie_rmw_turnaround;
  const sim::Time free1 = sim::ns(10) + plain;                       // 1
  const sim::Time free4 = std::max(sim::ns(20), free1) + rmw;        // 4
  const sim::Time free2 = std::max(sim::ns(30), free4) + rmw;        // 2
  const sim::Time free5 = std::max(sim::ns(30), free2) + plain;      // 5
  const sim::Time free6 = std::max(sim::ns(40), free5) + plain;      // 6
  const sim::Time free3 = std::max(sim::ns(50), free6) + plain;      // 3
  std::vector<std::pair<sim::Time, std::int64_t>> expect = {
      {free1 + lat, 1},        {free4 + lat + turn, 4},
      {free2 + lat + turn, 2}, {free5 + lat, 5},
      {free6 + lat, 6},        {free3 + lat, 3}};
  auto landed = landings(tracer);
  std::sort(expect.begin(), expect.end());
  std::sort(landed.begin(), landed.end());
  EXPECT_EQ(landed, expect);
  EXPECT_EQ(end, expect.back().first);

  std::vector<std::int64_t> served;
  for (const auto& ev : tracer.events()) {
    if (ev.ph == 'B' && std::strcmp(ev.name, "dma write") == 0) {
      served.push_back(ev.msg);
    }
  }
  EXPECT_EQ(served, (std::vector<std::int64_t>{1, 4, 2, 5, 6, 3}));
  EXPECT_EQ(std::memcmp(host.data() + 512, b_hi.data(), 256), 0);
  for (std::size_t i = 0; i < 256; ++i) {
    ASSERT_EQ(host[256 + i],
              static_cast<std::byte>(3 + static_cast<unsigned>(a[i])))
        << i;
  }
  EXPECT_TRUE(dma.drained());
}

TEST(DmaFifo, WriteAtTCountsOnlyForEventsScheduledAfterIt) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(1 << 12);
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(64);
  const sim::Time t = sim::ns(100);
  std::size_t before = 99, issuing = 99, queued = 99, later = 99;
  eng.schedule_at(t, [&] { before = dma.queue_depth(); });
  dma.write_at(t, 0, src, false, 1);
  eng.schedule_at(t, [&] {
    // A write at t issued by the event at t arrives after it, and after
    // every event already scheduled for t, like a scheduled event would.
    dma.write_at(t, 64, src, false, 2);
    issuing = dma.queue_depth();
    eng.schedule_at(t, [&] { later = dma.queue_depth(); });
  });
  eng.schedule_at(t, [&] { queued = dma.queue_depth(); });
  eng.run();
  EXPECT_EQ(before, 0u);
  EXPECT_EQ(issuing, 1u);
  EXPECT_EQ(queued, 1u);
  EXPECT_EQ(later, 2u);
  EXPECT_EQ(dma.total_writes(), 2u);
}

TEST(DmaFifo, RunUntilCountsEveryWriteDueByTheDeadline) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(1 << 12);
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(64);
  const sim::Time t = sim::ns(50);
  dma.write_at(sim::ns(10), 0, src, false, 1);
  dma.write_at(t, 64, src, false, 2);
  dma.write_at(t + 1, 128, src, false, 3);
  eng.schedule_at(t, [&] { dma.write_at(t, 192, src, false, 4); });
  eng.run_until(t);
  // Every write due by t has arrived (none has landed yet); the one at
  // t + 1 has not.
  EXPECT_EQ(dma.queue_depth(), 3u);
  EXPECT_EQ(dma.total_writes(), 3u);
  EXPECT_EQ(std::memcmp(host.data() + 192, src.data(), 64), 0);
  // A write posted after run_until returns arrives at the next run.
  dma.write(256, src, false, 5);
  EXPECT_EQ(dma.queue_depth(), 3u);
  eng.run();
  EXPECT_EQ(dma.total_writes(), 5u);
  EXPECT_TRUE(dma.drained());
}

TEST(DmaFifo, BadWriteIsAViolationAtTheIssuingCall) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(64);
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(8);
  try {
    dma.write_at(0, 60, src, false, 42);
    FAIL() << "a write past the host buffer was accepted";
  } catch (const sim::check::Violation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("msg 42 of 8 bytes at host offset 60 overruns the "
                        "64-byte host buffer"),
              std::string::npos)
        << what;
  }
  EXPECT_THROW(dma.write_rmw_at(0, -8, src, ReduceOp::kSum, ElemType::kInt8,
                                43),
               sim::check::Violation);
  eng.run_until(sim::ns(5));
  try {
    dma.write_at(sim::ns(1), 0, src, false, 44);
    FAIL() << "a write in the past was accepted";
  } catch (const sim::check::Violation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("msg 44 issued for t=1000 ps, before now=5000 ps"),
              std::string::npos)
        << what;
  }
  eng.run();
  EXPECT_EQ(dma.total_writes(), 0u);
}

// One DMA request as a handler issues it: a train of `count` plain
// writes, or a single plain, RMW or signalled write (count 1).
struct Issue {
  enum class Kind { kTrain, kPlain, kRmw, kSignal } kind = Kind::kPlain;
  sim::Time when = 0;
  sim::Time step = 0;
  std::int64_t host_off = 0;
  std::int64_t stride = 0;
  std::size_t src_off = 0;
  std::uint64_t block = 0;
  std::uint64_t count = 1;
  std::uint64_t msg = 0;
};

// Everything the DMA engine and its sim::Engine publish, for a
// differential between two engines fed the same writes.
struct DmaOutcome {
  std::vector<std::tuple<char, std::string, sim::Time, std::int64_t, double>>
      events;  // every traced event: spans, landings, depth counter
  std::vector<std::pair<sim::Time, double>> depth;
  std::vector<std::pair<std::uint64_t, sim::Time>> completions;
  std::vector<std::byte> host;
  std::map<std::string, std::uint64_t> counters;
  std::int64_t depth_peak = 0;
  sim::Time end = 0;
  std::array<std::uint64_t, sim::Engine::kSizeBuckets> callbacks{};
  std::uint64_t executed = 0;
};

// Run `events` (event time, the issues it makes) through a fresh DMA
// engine; `as_trains` hands each train to write_train, otherwise its
// writes go one by one through write_at.
DmaOutcome run_issues(
    const std::vector<std::pair<sim::Time, std::vector<Issue>>>& events,
    const std::vector<std::byte>& src, bool as_trains) {
  sim::Engine eng;
  CostModel cost;
  sim::MetricsRegistry metrics;
  DmaOutcome out;
  out.host.assign(1 << 14, std::byte{5});
  DmaEngine dma(eng, cost, out.host, &metrics);
  sim::trace::TraceConfig tc;
  tc.events = true;
  sim::trace::Tracer tracer(tc);
  dma.set_tracer(&tracer);
  dma.set_completion_callback([&](std::uint64_t id, sim::Time when) {
    out.completions.emplace_back(id, when);
  });
  for (const auto& [at, issues] : events) {
    eng.schedule_at(at, [&, &issues = issues] {
      for (const Issue& w : issues) {
        const std::byte* from = src.data() + w.src_off;
        switch (w.kind) {
          case Issue::Kind::kTrain:
            if (as_trains) {
              dma.write_train(w.when, w.step, w.host_off, w.stride, from,
                              w.block, w.count, w.msg);
              break;
            }
            for (std::uint64_t i = 0; i < w.count; ++i) {
              const auto k = static_cast<std::int64_t>(i);
              dma.write_at(w.when + k * w.step, w.host_off + k * w.stride,
                           {from + i * w.block, w.block}, false, w.msg);
            }
            break;
          case Issue::Kind::kPlain:
          case Issue::Kind::kSignal:
            dma.write_at(w.when, w.host_off, {from, w.block},
                         w.kind == Issue::Kind::kSignal, w.msg);
            break;
          case Issue::Kind::kRmw:
            dma.write_rmw_at(w.when, w.host_off, {from, w.block},
                             ReduceOp::kSum, ElemType::kInt8, w.msg);
            break;
        }
      }
    });
  }
  out.end = eng.run();
  EXPECT_TRUE(dma.drained());
  for (const auto& ev : tracer.events()) {
    out.events.emplace_back(ev.ph, ev.name, ev.ts, ev.msg, ev.value);
  }
  out.depth = dma.depth_trace();
  const sim::MetricsSnapshot snap = metrics.snapshot();
  out.counters = snap.counters;
  out.depth_peak = snap.gauge_peak("nic.dma.queue_depth");
  out.callbacks = eng.callback_size_hist();
  out.executed = eng.executed();
  return out;
}

TEST(DmaFifo, TrainMatchesSingleWrites) {
  const std::vector<std::byte> src = pattern(1 << 13);
  const std::int64_t host = 1 << 14;
  std::uint64_t trains = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    std::vector<std::pair<sim::Time, std::vector<Issue>>> events;
    std::uint64_t msg = 1;
    for (int e = 0; e < 6; ++e) {
      // Few distinct instants, so events, trains and landings tie; some
      // 200 us later, after the DMA went idle, so a train's first write
      // arms the sweep at its own arrival.
      const sim::Time at =
          sim::us(static_cast<std::int64_t>(pick(2)) * 200) +
          sim::ns(static_cast<std::int64_t>(pick(4)) * 40);
      std::vector<Issue> issues;
      sim::Time t = at + static_cast<sim::Time>(pick(3)) * sim::ns(7);
      const std::uint64_t n = 1 + pick(6);
      for (std::uint64_t j = 0; j < n; ++j, ++msg) {
        Issue w;
        w.msg = msg;
        w.when = t;
        w.block = 1 + pick(64);
        w.src_off = pick(src.size() - 64 * 24);
        const std::uint64_t kind = pick(10);
        if (kind < 6) {
          w.kind = Issue::Kind::kTrain;
          w.count = 1 + pick(24);
          w.step = pick(3) == 0 ? 0
                                : static_cast<sim::Time>(pick(3)) * sim::ns(3) +
                                      static_cast<sim::Time>(pick(2));
          w.stride = static_cast<std::int64_t>(pick(257)) - 128;
          const std::int64_t span =
              static_cast<std::int64_t>(w.count - 1) * w.stride;
          const std::int64_t lo = std::max<std::int64_t>(0, -span);
          const std::int64_t hi =
              host - static_cast<std::int64_t>(w.block) -
              std::max<std::int64_t>(0, span);
          w.host_off = lo + static_cast<std::int64_t>(
                                pick(static_cast<std::uint64_t>(hi - lo)));
          t += static_cast<sim::Time>(w.count) * w.step;
          trains += w.count > 1;
        } else {
          w.kind = kind < 8 ? Issue::Kind::kPlain : Issue::Kind::kRmw;
          w.host_off = static_cast<std::int64_t>(
              pick(static_cast<std::uint64_t>(host) - w.block));
          t += static_cast<sim::Time>(pick(2)) * sim::ns(5);
        }
        issues.push_back(w);
      }
      Issue done;
      done.kind = Issue::Kind::kSignal;
      done.when = t;
      done.block = 0;
      done.msg = msg++;
      issues.push_back(done);
      events.emplace_back(at, std::move(issues));
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DmaOutcome trained = run_issues(events, src, true);
    const DmaOutcome single = run_issues(events, src, false);
    EXPECT_EQ(trained.events, single.events);
    EXPECT_EQ(trained.depth, single.depth);
    EXPECT_EQ(trained.completions, single.completions);
    EXPECT_TRUE(trained.host == single.host);
    EXPECT_EQ(trained.counters, single.counters);
    EXPECT_EQ(trained.depth_peak, single.depth_peak);
    EXPECT_EQ(trained.end, single.end);
    EXPECT_EQ(trained.callbacks, single.callbacks);
    EXPECT_EQ(trained.executed, single.executed);
    EXPECT_EQ(trained.completions.size(), 6u);
  }
  EXPECT_GT(trains, 400u);
}

// On an idle engine a train's first write arms the sweep at its own
// arrival, and with a zero issue step the sweep then ties with the
// later writes: it must serve write 0 alone, as it would have served
// the writes one by one, and take the same number of events.
TEST(DmaFifo, TrainArmsTheSweepLikeItsFirstWrite) {
  const std::vector<std::byte> src = pattern(256);
  for (const sim::Time step : {sim::Time{0}, sim::ns(2)}) {
    Issue train;
    train.kind = Issue::Kind::kTrain;
    train.when = sim::ns(10);
    train.step = step;
    train.block = 16;
    train.count = 3;
    train.stride = 32;
    train.msg = 1;
    const std::vector<std::pair<sim::Time, std::vector<Issue>>> events = {
        {sim::ns(10), {train}}};
    const DmaOutcome trained = run_issues(events, src, true);
    const DmaOutcome single = run_issues(events, src, false);
    EXPECT_EQ(trained.events, single.events) << "step " << step;
    EXPECT_EQ(trained.executed, single.executed) << "step " << step;
    EXPECT_EQ(trained.callbacks, single.callbacks) << "step " << step;
    EXPECT_EQ(trained.end, single.end) << "step " << step;
  }
}

TEST(DmaFifo, BadTrainIsAViolationAtTheIssuingCall) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(256);
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(64);
  try {
    // Writes at 0, 64, 128, 192, 256: the last one overruns.
    dma.write_train(0, sim::ns(1), 0, 64, src.data(), 8, 5, 42);
    FAIL() << "a train past the host buffer was accepted";
  } catch (const sim::check::Violation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("msg 42 of 5 x 8 bytes at host offsets 0 .. 256 "
                        "overruns the 256-byte host buffer"),
              std::string::npos)
        << what;
  }
  try {
    dma.write_train(0, sim::ns(1), 64, -32, src.data(), 8, 4, 43);
    FAIL() << "a train below host offset 0 was accepted";
  } catch (const sim::check::Violation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("at host offsets 64 .. -32 overruns"),
              std::string::npos)
        << what;
  }
  EXPECT_THROW(dma.write_train(0, -1, 0, 8, src.data(), 8, 2, 45),
               sim::check::Violation);
  eng.run_until(sim::ns(5));
  try {
    dma.write_train(sim::ns(1), sim::ns(1), 0, 8, src.data(), 8, 4, 44);
    FAIL() << "a train in the past was accepted";
  } catch (const sim::check::Violation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("msg 44 issued for t=1000 ps, before now=5000 ps"),
              std::string::npos)
        << what;
  }
  eng.run();
  EXPECT_EQ(dma.total_writes(), 0u);
  EXPECT_TRUE(dma.drained());
}

TEST(DmaFifo, LandingBelowZeroDepthIsAViolation) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(256);
  sim::MetricsRegistry metrics;
  DmaEngine dma(eng, cost, host, &metrics);
  const auto src = pattern(64);
  dma.write_at(0, 0, src, false, 7);
  eng.run_until(0);
  ASSERT_EQ(dma.queue_depth(), 1u);
  // Corrupt the occupancy gauge: the landing then has nothing to retire.
  metrics.gauge("nic.dma.queue_depth").sub(1);
  try {
    eng.run();
    FAIL() << "a landing retired from an empty queue";
  } catch (const sim::check::Violation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("DMA landing for msg 7 at t=" +
                        std::to_string(cost.dma_service(64) +
                                       cost.pcie_write_latency) +
                        " ps retires from queue depth 0"),
              std::string::npos)
        << what;
  }
}

TEST(Scheduler, DefaultPolicyUsesAllHpus) {
  sim::Engine eng;
  CostModel cost;
  Scheduler sched(eng, 4, cost);
  std::vector<sim::Time> starts;
  for (int i = 0; i < 8; ++i) {
    sched.enqueue(1, SchedulingPolicy::Default(), static_cast<unsigned>(i),
                  [&starts](sim::Time t) {
                    starts.push_back(t);
                    return sim::ns(100);
                  });
  }
  eng.run();
  ASSERT_EQ(starts.size(), 8u);
  // First 4 run immediately; next 4 at +100ns.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(starts[static_cast<size_t>(i)], 0);
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(starts[static_cast<size_t>(i)], sim::ns(100));
  }
}

TEST(Scheduler, BlockedRRSerializesSequences) {
  sim::Engine eng;
  CostModel cost;
  Scheduler sched(eng, 8, cost);
  // 2 vHPUs, delta_p = 2: packets {0,1} -> vHPU0, {2,3} -> vHPU1,
  // {4,5} -> vHPU0 again.
  std::vector<std::pair<std::uint64_t, sim::Time>> runs;
  const auto policy = SchedulingPolicy::BlockedRR(2, 2);
  for (std::uint64_t p = 0; p < 6; ++p) {
    sched.enqueue(1, policy, p, [&runs, p](sim::Time t) {
      runs.emplace_back(p, t);
      return sim::ns(100);
    });
  }
  eng.run();
  ASSERT_EQ(runs.size(), 6u);
  // Packets of the same vHPU never overlap in time.
  auto overlap = [&](std::uint64_t a, std::uint64_t b) {
    sim::Time sa = -1, sb = -1;
    for (auto& [pkt, t] : runs) {
      if (pkt == a) sa = t;
      if (pkt == b) sb = t;
    }
    return sa != -1 && sb != -1 && sa < sb + sim::ns(100) &&
           sb < sa + sim::ns(100);
  };
  EXPECT_FALSE(overlap(0, 1));  // same vHPU, serialized
  EXPECT_FALSE(overlap(2, 3));
  EXPECT_TRUE(overlap(0, 2));  // different vHPUs run concurrently
}

TEST(Scheduler, BlockedRRWithoutVhpusOrSequenceIsAViolation) {
  sim::Engine eng;
  CostModel cost;
  Scheduler sched(eng, 4, cost);
  const auto noop = [](sim::Time) { return sim::ns(1); };
  for (const auto& [policy, needle] :
       {std::pair{SchedulingPolicy::BlockedRR(0, 2), "0 vHPUs and delta_p 2"},
        std::pair{SchedulingPolicy::BlockedRR(2, 0),
                  "2 vHPUs and delta_p 0"}}) {
    try {
      sched.enqueue(9, policy, 0, noop);
      ADD_FAILURE() << "accepted " << needle;
    } catch (const sim::check::Violation& v) {
      const std::string what = v.what();
      EXPECT_NE(what.find("msg 9: scheduling policy with"), std::string::npos)
          << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  }
}

TEST(Scheduler, BlockedRRLimitedByPhysicalHpus) {
  sim::Engine eng;
  CostModel cost;
  Scheduler sched(eng, 1, cost);  // one physical HPU
  const auto policy = SchedulingPolicy::BlockedRR(4, 1);
  std::vector<sim::Time> starts;
  for (std::uint64_t p = 0; p < 4; ++p) {
    sched.enqueue(1, policy, p, [&starts](sim::Time t) {
      starts.push_back(t);
      return sim::ns(50);
    });
  }
  eng.run();
  ASSERT_EQ(starts.size(), 4u);
  for (std::size_t i = 1; i < starts.size(); ++i) {
    EXPECT_GE(starts[i], starts[i - 1] + sim::ns(50))
        << "one HPU cannot run two handlers at once";
  }
}

TEST(Scheduler, EndWorkRunsWhileItsHpuIsStillBusy) {
  // One HPU: task A's end work enqueues task B at A's end. It runs
  // first in A's release event, so it finds the HPU busy and B queues
  // behind C (enqueued at t=0) — the order of a separate end event
  // dispatched just before the release.
  sim::Engine eng;
  CostModel cost;
  Scheduler sched(eng, 1, cost);
  std::vector<std::pair<char, sim::Time>> starts;
  std::uint32_t busy_at_end = 0;
  const auto record = [&starts](char name) {
    return [&starts, name](sim::Time t) -> sim::Time {
      starts.emplace_back(name, t);
      return sim::ns(100);
    };
  };
  sched.enqueue(1, SchedulingPolicy::Default(), 0,
                [&](sim::Time t) -> Scheduler::TaskResult {
                  starts.emplace_back('A', t);
                  return {sim::ns(100), [&] {
                            sched.enqueue(1, SchedulingPolicy::Default(), 2,
                                          record('B'));
                            busy_at_end = sched.busy();
                          }};
                });
  sched.enqueue(1, SchedulingPolicy::Default(), 1, record('C'));
  eng.run();
  EXPECT_EQ(busy_at_end, 1u);
  EXPECT_EQ(starts, (std::vector<std::pair<char, sim::Time>>{
                        {'A', 0}, {'C', sim::ns(100)}, {'B', sim::ns(200)}}));
  // One release event per task: the end work has no event of its own.
  EXPECT_EQ(eng.executed(), 3u);
  EXPECT_EQ(sched.handlers_run(), 3u);
}

class NicFixture : public ::testing::Test {
 protected:
  NicFixture()
      : host(1 << 20), nic(eng, host, CostModel{}, NicConfig{4, 1 << 20}),
        link(eng, fabric::point_to_point(nic.cost())) {
    link.attach(1, nic);
  }

  sim::Engine eng;
  Host host;
  NicModel nic;
  fabric::Fabric link;  // node 0 -> this NIC (node 1)
};

TEST_F(NicFixture, RdmaPathDeliversContiguously) {
  p4::MatchEntry me;
  me.match_bits = 5;
  me.buffer_offset = 1000;
  me.length = 1 << 16;
  nic.match_list().append(p4::ListKind::kPriority, me);

  const auto data = pattern(5000);
  auto pkts = p4::packetize(1, 5, data);
  link.send(0, 1, pkts, 0);
  eng.run();

  EXPECT_EQ(std::memcmp(host.memory().data() + 1000, data.data(), 5000), 0);
  const auto* ev = host.events().find(p4::EventKind::kPut);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->bytes, 5000u);
  const auto* info = nic.info(1);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->done);
  EXPECT_GT(info->unpack_done, info->first_byte);
}

TEST_F(NicFixture, UnmatchedMessageIsDropped) {
  const auto data = pattern(100);
  auto pkts = p4::packetize(1, 99, data);
  link.send(0, 1, pkts, 0);
  eng.run();
  EXPECT_NE(host.events().find(p4::EventKind::kDropped), nullptr);
  EXPECT_EQ(nic.dma().total_writes(), 0u);
}

TEST_F(NicFixture, OverflowListFallback) {
  p4::MatchEntry me;
  me.match_bits = 5;
  me.buffer_offset = 0;
  nic.match_list().append(p4::ListKind::kOverflow, me);
  const auto data = pattern(64);
  link.send(0, 1, p4::packetize(1, 5, data), 0);
  eng.run();
  EXPECT_NE(host.events().find(p4::EventKind::kPutOverflow), nullptr);
}

TEST_F(NicFixture, HandlerPathScattersViaDma) {
  // A toy sPIN handler: write each 64 B chunk of the packet to
  // buffer_offset + 2 * stream_offset (a "double-spaced" scatter).
  ExecutionContext ctx;
  ctx.payload = [this](HandlerArgs& args) {
    args.meter.charge(Phase::kInit, nic.cost().h_init);
    const auto* data = args.pkt.data;
    for (std::uint32_t at = 0; at < args.pkt.payload_bytes; at += 64) {
      const auto len =
          std::min<std::uint32_t>(64, args.pkt.payload_bytes - at);
      args.meter.charge(Phase::kProcessing, nic.cost().h_block);
      args.meter.charge(Phase::kProcessing, nic.cost().h_dma_issue);
      args.dma.write(args.meter.total(),
                     args.buffer_offset +
                         2 * static_cast<std::int64_t>(args.pkt.offset + at),
                     {data + at, len});
    }
  };
  ctx.completion = [this](HandlerArgs& args) {
    args.meter.charge(Phase::kProcessing, nic.cost().h_complete);
    args.dma.write(args.meter.total(), 0, {}, /*signal_event=*/true);
  };

  p4::MatchEntry me;
  me.match_bits = 9;
  me.buffer_offset = 0;
  me.context = nic.register_context(std::move(ctx));
  nic.match_list().append(p4::ListKind::kPriority, me);

  const auto data = pattern(4096);  // 2 packets
  link.send(0, 1, p4::packetize(3, 9, data), 0);
  eng.run();

  // Every 64 B chunk at stream offset s lands at host offset 2 s.
  for (std::size_t s = 0; s < 4096; s += 64) {
    EXPECT_EQ(std::memcmp(host.memory().data() + 2 * s, data.data() + s, 64),
              0)
        << "chunk at " << s;
  }
  const auto* ev = host.events().find(p4::EventKind::kUnpackComplete);
  ASSERT_NE(ev, nullptr);
  const auto* info = nic.info(3);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->done);
  EXPECT_EQ(info->handlers, 2u);
  EXPECT_GT(info->processing_time, 0);
}

TEST_F(NicFixture, HandlerEndIsOneEventPerPacket) {
  // A point-to-point receive of 8 packets through a payload handler
  // (one DMA write each) and a completion handler. A handler's end is
  // one event: the NIC's bookkeeping runs inside the HPU release, 8
  // events fewer than with a bookkeeping event of its own per payload
  // handler (38). The count is pinned: any new per-packet event shows.
  ExecutionContext ctx;
  ctx.payload = [](HandlerArgs& args) {
    args.meter.charge(Phase::kProcessing, sim::ns(200));
    args.dma.write(args.meter.total(),
                   args.buffer_offset + static_cast<std::int64_t>(args.pkt.offset),
                   {args.pkt.data, args.pkt.payload_bytes});
  };
  ctx.completion = [](HandlerArgs& args) { args.dma.write(0, 0, {}, true); };
  p4::MatchEntry me;
  me.match_bits = 5;
  me.context = nic.register_context(std::move(ctx));
  nic.match_list().append(p4::ListKind::kPriority, me);

  const auto data = pattern(8 * 2048);
  link.send(0, 1, p4::packetize(6, 5, data), 0);
  eng.run();

  const auto* info = nic.info(6);
  ASSERT_TRUE(info != nullptr && info->done);
  ASSERT_EQ(info->packets, 8u);
  EXPECT_EQ(std::memcmp(host.memory().data(), data.data(), data.size()), 0);
  EXPECT_EQ(eng.executed(), 30u);
}

TEST_F(NicFixture, CompletionHandlerRunsAfterAllPayloads) {
  std::vector<std::string> order;
  ExecutionContext ctx;
  ctx.payload = [&order](HandlerArgs& args) {
    args.meter.charge(Phase::kProcessing, sim::us(10));  // slow handler
    order.push_back("payload");
  };
  ctx.completion = [&order](HandlerArgs& args) {
    order.push_back("completion");
    args.dma.write(0, 0, {}, true);
  };
  p4::MatchEntry me;
  me.match_bits = 1;
  me.context = nic.register_context(std::move(ctx));
  nic.match_list().append(p4::ListKind::kPriority, me);

  const auto data = pattern(8192);  // 4 packets, handlers overlap
  link.send(0, 1, p4::packetize(4, 1, data), 0);
  eng.run();

  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order.back(), "completion");
}

TEST_F(NicFixture, HeaderHandlerRunsBeforeAnyPayloadHandler) {
  // A slow header handler must gate every payload handler (paper
  // Sec 3.2.1 happens-before), even with idle HPUs available.
  std::vector<sim::Time> payload_starts;
  ExecutionContext ctx;
  ctx.header = [&](HandlerArgs& args) {
    args.meter.charge(Phase::kInit, sim::us(50));  // slow header
  };
  ctx.payload = [&](HandlerArgs& args) {
    // The first packet's payload part shares the header's task; only
    // the deferred packets observe the gate as a later start time.
    if (!args.pkt.first) payload_starts.push_back(eng.now());
    args.meter.charge(Phase::kProcessing, sim::ns(100));
  };
  ctx.completion = [](HandlerArgs& args) { args.dma.write(0, 0, {}, true); };
  p4::MatchEntry me;
  me.match_bits = 3;
  me.context = nic.register_context(std::move(ctx));
  nic.match_list().append(p4::ListKind::kPriority, me);

  const auto data = pattern(2048 * 6);
  link.send(0, 1, p4::packetize(7, 3, data), 0);
  eng.run();

  ASSERT_EQ(payload_starts.size(), 5u);
  for (std::size_t i = 0; i < payload_starts.size(); ++i) {
    EXPECT_GE(payload_starts[i], sim::us(50))
        << "payload " << i << " ran before the header handler finished";
  }
  EXPECT_TRUE(nic.info(7)->done);
}

TEST_F(NicFixture, ShuffledDeliveryKeepsHeaderFirstCompletionLast) {
  std::vector<std::uint64_t> arrival_offsets;
  ExecutionContext ctx;
  ctx.payload = [&arrival_offsets](HandlerArgs& args) {
    arrival_offsets.push_back(args.pkt.offset);
    args.meter.charge(Phase::kProcessing, sim::ns(10));
  };
  ctx.completion = [](HandlerArgs& args) { args.dma.write(0, 0, {}, true); };
  p4::MatchEntry me;
  me.match_bits = 2;
  me.context = nic.register_context(std::move(ctx));
  nic.match_list().append(p4::ListKind::kPriority, me);

  const auto data = pattern(2048 * 8);
  auto pkts = p4::packetize(5, 2, data);
  p4::shuffle_payload(pkts, 4, /*seed=*/99);
  link.send(0, 1, pkts, 0);
  eng.run();

  ASSERT_EQ(arrival_offsets.size(), 8u);
  EXPECT_EQ(arrival_offsets.front(), 0u) << "header stays first";
  EXPECT_EQ(arrival_offsets.back(), 7u * 2048) << "completion stays last";
  EXPECT_FALSE(std::is_sorted(arrival_offsets.begin(),
                              arrival_offsets.end()))
      << "payload packets should arrive out of order";
  EXPECT_TRUE(nic.info(5)->done);
}

TEST_F(NicFixture, LatencyMatchesCostModelForRdma) {
  // Fig 2 anchor: a tiny put takes net_latency + wire + NIC + PCIe.
  p4::MatchEntry me;
  me.match_bits = 4;
  nic.match_list().append(p4::ListKind::kPriority, me);
  const auto data = pattern(1);
  link.send(0, 1, p4::packetize(9, 4, data), 0);
  eng.run();
  const CostModel& c = nic.cost();
  const sim::Time expected = c.wire_time(1) + c.net_latency +
                             c.rdma_nic_per_pkt + c.dma_service(1) +
                             c.pcie_write_latency;
  EXPECT_EQ(nic.info(9)->unpack_done, expected);
}

}  // namespace
}  // namespace netddt::spin
