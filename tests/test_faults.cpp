// Fault-injection layer tests: determinism of the fault schedule,
// sender-side reliability bookkeeping, the reliable-put protocol on both
// routes (Link and Fabric), and the end-to-end guarantee that every
// unpack strategy reconstructs a byte-identical receive buffer under
// drops, duplicates and reorder.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ddt/datatype.hpp"
#include "fabric/fabric.hpp"
#include "offload/runner.hpp"
#include "p4/put.hpp"
#include "sim/faults/faults.hpp"
#include "spin/link.hpp"
#include "spin/nic.hpp"

namespace netddt {
namespace {

using ddt::Datatype;
using offload::StrategyKind;
using sim::faults::FaultConfig;
using sim::faults::FaultDecision;
using sim::faults::FaultPlan;

FaultConfig lossy_config(std::uint64_t seed) {
  FaultConfig fc;
  fc.drop_rate = 0.05;
  fc.dup_rate = 0.02;
  fc.reorder_rate = 0.05;
  fc.seed = seed;
  return fc;
}

std::vector<FaultDecision> schedule(const FaultPlan& plan,
                                    std::uint64_t npkt,
                                    std::uint32_t attempts) {
  std::vector<FaultDecision> out;
  for (std::uint64_t i = 0; i < npkt; ++i) {
    for (std::uint32_t a = 0; a < attempts; ++a) {
      out.push_back(plan.decide(i, a));
    }
  }
  return out;
}

bool equal(const std::vector<FaultDecision>& a,
           const std::vector<FaultDecision>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].drop != b[i].drop || a[i].duplicate != b[i].duplicate ||
        a[i].delay_slots != b[i].delay_slots ||
        a[i].dup_delay_slots != b[i].dup_delay_slots) {
      return false;
    }
  }
  return true;
}

// --- FaultPlan determinism ----------------------------------------------

TEST(FaultPlan, SameSeedSameSchedule) {
  const FaultPlan a(lossy_config(42), /*msg_id=*/7);
  const FaultPlan b(lossy_config(42), /*msg_id=*/7);
  EXPECT_TRUE(equal(schedule(a, 512, 3), schedule(b, 512, 3)));
}

TEST(FaultPlan, SeedAndMessageChangeTheSchedule) {
  const FaultPlan base(lossy_config(42), 7);
  const FaultPlan other_seed(lossy_config(43), 7);
  const FaultPlan other_msg(lossy_config(42), 8);
  EXPECT_FALSE(equal(schedule(base, 512, 3), schedule(other_seed, 512, 3)));
  EXPECT_FALSE(equal(schedule(base, 512, 3), schedule(other_msg, 512, 3)));
}

TEST(FaultPlan, DecisionsAreOrderIndependent) {
  // decide() is a pure function of (seed, msg, pkt, attempt): querying
  // the schedule backwards or repeatedly returns the same outcomes.
  const FaultPlan plan(lossy_config(9), 1);
  const auto fwd = schedule(plan, 256, 2);
  std::vector<FaultDecision> bwd(fwd.size());
  for (std::uint64_t i = 256; i-- > 0;) {
    for (std::uint32_t a = 2; a-- > 0;) {
      bwd[i * 2 + a] = plan.decide(i, a);
    }
  }
  EXPECT_TRUE(equal(fwd, bwd));
}

TEST(FaultPlan, InertConfigNeverFaults) {
  const FaultPlan plan(FaultConfig{}, 1);
  EXPECT_FALSE(plan.active());
  for (const auto& d : schedule(plan, 128, 2)) {
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.delay_slots, 0u);
  }
}

TEST(FaultPlan, RatesAreHonoredRoughly) {
  FaultConfig fc;
  fc.drop_rate = 0.25;
  fc.seed = 3;
  const FaultPlan plan(fc, 1);
  std::uint64_t drops = 0;
  constexpr std::uint64_t kN = 20000;
  for (std::uint64_t i = 0; i < kN; ++i) drops += plan.decide(i, 0).drop;
  EXPECT_NEAR(static_cast<double>(drops) / kN, 0.25, 0.02);
}

// --- Sender-side bookkeeping --------------------------------------------

TEST(ReliablePutState, AckAndRetransmitAccounting) {
  p4::ReliablePutState st(3);
  st.record_attempt(0);
  st.record_attempt(1);
  st.record_attempt(1);  // one retransmit
  st.record_attempt(2);
  EXPECT_EQ(st.retransmits(), 1u);
  EXPECT_EQ(st.attempts(1), 2u);

  EXPECT_TRUE(st.mark_acked(0));
  EXPECT_FALSE(st.mark_acked(0));  // duplicate ack ignored
  EXPECT_FALSE(st.data_acked());
  EXPECT_TRUE(st.mark_acked(1));
  EXPECT_TRUE(st.data_acked());  // all but the completion packet
  EXPECT_FALSE(st.all_acked());
  EXPECT_TRUE(st.mark_acked(2));
  EXPECT_TRUE(st.all_acked());
}

TEST(RetransmitConfig, ExponentialBackoff) {
  p4::RetransmitConfig rc;
  rc.backoff = 2.0;
  EXPECT_EQ(rc.timeout_for(0, 1000), 1000);
  EXPECT_EQ(rc.timeout_for(1, 1000), 2000);
  EXPECT_EQ(rc.timeout_for(3, 1000), 8000);
  // Saturates instead of overflowing.
  EXPECT_GT(rc.timeout_for(100, 1000), 0);
}

// --- Reliable transport: one suite over both routes ---------------------
//
// Link and Fabric share the sender-side machine (spin::ReliablePut) and
// differ only in the path, so every protocol property is checked on a
// direct Link and on a 2-node fat-tree Fabric (node 0 -> node 1).

enum class Route { kLink, kFabric };

void PrintTo(Route r, std::ostream* os) {
  *os << (r == Route::kLink ? "Link" : "Fabric");
}

/// A sender -> NIC world whose reliable puts take the given route, with
/// the route's names for the machine's counters.
struct ReliableWorld {
  explicit ReliableWorld(Route r) : host(1 << 20), nic(engine, host) {
    if (r == Route::kLink) {
      link.emplace(engine, nic, nic.cost());
    } else {
      fabric::FabricConfig fc;
      fc.topology.nodes = 2;
      fc.cost = nic.cost();
      fab.emplace(engine, fc);
      fab->attach(1, nic);
    }
  }

  void send_reliable(const std::vector<p4::Packet>& packets,
                     const FaultPlan& plan, const p4::RetransmitConfig& rc,
                     spin::PutCompleteFn on_complete) {
    if (link) {
      link->send_reliable(packets, 0, plan, rc, std::move(on_complete));
    } else {
      fab->send_reliable(0, 1, packets, 0, plan, rc, std::move(on_complete));
    }
  }

  /// Value of the machine counter `what` ("retransmits", "drops", "acks",
  /// "put_failures") under the route's metric name.
  std::uint64_t counter(const std::string& what) const {
    if (link) {
      const std::string name = what == "drops" ? "p4.pkts_dropped"
                                               : "p4." + what;
      return nic.metrics().snapshot().counter(name);
    }
    return fab->metrics().snapshot().counter("fabric." + what);
  }

  std::uint64_t nic_deliveries() const {
    return nic.metrics().snapshot().counter("nic.pkts.delivered");
  }

  sim::Engine engine;
  spin::Host host;
  spin::NicModel nic;
  std::optional<spin::Link> link;
  std::optional<fabric::Fabric> fab;
};

class ReliableLink : public ::testing::TestWithParam<Route> {};

TEST_P(ReliableLink, RetryExhaustionFailsThePut) {
  ReliableWorld w(GetParam());
  std::vector<std::byte> data(8192, std::byte{0x5a});
  const auto packets = p4::packetize(1, 0x5197, data);

  FaultConfig fc;
  fc.drop_rate = 1.0;  // black hole
  fc.seed = 5;
  p4::RetransmitConfig rc;
  rc.max_retries = 2;

  int calls = 0;
  bool ok = true;
  w.send_reliable(packets, FaultPlan(fc, 1), rc, [&](sim::Time, bool o) {
    ++calls;
    ok = o;
  });
  w.engine.run();

  EXPECT_EQ(calls, 1);  // the put fails exactly once
  EXPECT_FALSE(ok);
  EXPECT_EQ(w.counter("put_failures"), 1u);
  EXPECT_EQ(w.counter("acks"), 0u);
  // Every attempt of every data packet was dropped; the completion
  // packet was never released.
  EXPECT_EQ(w.counter("drops"), (packets.size() - 1) * (rc.max_retries + 1));
  EXPECT_EQ(w.counter("retransmits"), (packets.size() - 1) * rc.max_retries);
  EXPECT_EQ(w.nic_deliveries(), 0u);
}

TEST_P(ReliableLink, CompletesAndReportsRetransmits) {
  ReliableWorld w(GetParam());
  p4::MatchEntry me;
  me.match_bits = 0x5197;
  me.buffer_offset = 0;
  me.length = 1 << 20;
  w.nic.match_list().append(p4::ListKind::kPriority, me);

  std::vector<std::byte> data(512 * 1024);  // 256 packets: drops certain
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 31 + 7);
  }
  const auto packets = p4::packetize(1, me.match_bits, data);
  ASSERT_EQ(packets.size(), 256u);

  int calls = 0;
  bool ok = false;
  sim::Time when = 0;
  w.send_reliable(packets, FaultPlan(lossy_config(11), 1), {},
                  [&](sim::Time t, bool o) {
                    ++calls;
                    ok = o;
                    when = t;
                  });
  w.engine.run();

  ASSERT_EQ(calls, 1);
  EXPECT_TRUE(ok);
  EXPECT_GT(when, 0);
  const auto* info = w.nic.info(1);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->done);
  // Unique-packet accounting survives duplicates and retransmits.
  EXPECT_EQ(info->bytes, data.size());
  EXPECT_EQ(info->packets, packets.size());
  // The RDMA path landed the exact bytes despite the faults.
  EXPECT_EQ(std::memcmp(w.host.memory().data(), data.data(), data.size()),
            0);
  // The derived timeout never fires on an attempt still in flight: every
  // retransmit answers a drop. Every copy the NIC saw was acked.
  EXPECT_GT(w.counter("drops"), 0u);
  EXPECT_EQ(w.counter("drops"), w.counter("retransmits"));
  EXPECT_EQ(w.counter("acks"), w.nic_deliveries());
  EXPECT_GT(w.nic_deliveries(), packets.size());  // duplicates arrived
  EXPECT_EQ(w.counter("put_failures"), 0u);
}

TEST_P(ReliableLink, SinglePacketPutCompletes) {
  // The lone packet is header, data and completion at once: it goes out
  // immediately instead of waiting for data acks.
  ReliableWorld w(GetParam());
  p4::MatchEntry me;
  me.match_bits = 0x51;
  me.buffer_offset = 0;
  me.length = 1 << 16;
  w.nic.match_list().append(p4::ListKind::kPriority, me);

  std::vector<std::byte> data(512);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 7 + 3);
  }
  const auto packets = p4::packetize(4, me.match_bits, data);
  ASSERT_EQ(packets.size(), 1u);

  FaultConfig fc;
  fc.drop_rate = 0.5;
  fc.dup_rate = 0.5;
  fc.seed = 13;
  int calls = 0;
  bool ok = false;
  w.send_reliable(packets, FaultPlan(fc, 4), {}, [&](sim::Time, bool o) {
    ++calls;
    ok = o;
  });
  w.engine.run();

  ASSERT_EQ(calls, 1);
  EXPECT_TRUE(ok);
  const auto* info = w.nic.info(4);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->done);
  EXPECT_EQ(std::memcmp(w.host.memory().data(), data.data(), data.size()),
            0);
  EXPECT_EQ(w.counter("drops"), w.counter("retransmits"));
  EXPECT_EQ(w.counter("acks"), w.nic_deliveries());
}

INSTANTIATE_TEST_SUITE_P(
    Routes, ReliableLink, ::testing::Values(Route::kLink, Route::kFabric),
    [](const ::testing::TestParamInfo<Route>& info) {
      return info.param == Route::kLink ? "Link" : "Fabric";
    });

TEST(FaultRunner, ExhaustedRetriesRaiseAnError) {
  // A black-hole wire: the put fails and run_receive reports it instead
  // of reading the never-completed message.
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::hvector(64, 128, 256, Datatype::int8());
  cfg.strategy = StrategyKind::kRwCp;
  cfg.faults.drop_rate = 1.0;
  cfg.faults.seed = 3;
  cfg.retransmit.max_retries = 2;
  try {
    offload::run_receive(cfg);
    FAIL() << "run_receive returned for a failed put";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("msg 1"), std::string::npos) << what;
    EXPECT_NE(what.find("max_retries=2"), std::string::npos) << what;
  }
}

// --- End-to-end: lossy receives must equal lossless ---------------------

TEST(FaultRunner, AllStrategiesVerifyUnderFaults) {
  for (auto kind :
       {StrategyKind::kHostUnpack, StrategyKind::kSpecialized,
        StrategyKind::kHpuLocal, StrategyKind::kRoCp, StrategyKind::kRwCp,
        StrategyKind::kIovec}) {
    offload::ReceiveConfig cfg;
    cfg.type = Datatype::hvector(2048, 128, 256, Datatype::int8());
    cfg.strategy = kind;
    cfg.faults = lossy_config(23);
    const auto run = offload::run_receive(cfg);
    EXPECT_TRUE(run.result.verified) << strategy_name(kind);
    EXPECT_GT(run.result.pkts_dropped, 0u) << strategy_name(kind);
    EXPECT_EQ(run.result.retransmits, run.result.pkts_dropped)
        << strategy_name(kind);
  }
}

TEST(FaultRunner, RandomizedSeedSweepStaysByteIdentical) {
  // The strongest property the layer promises: any fault schedule
  // produces the same receive buffer as the lossless wire. run_receive
  // verifies the buffer against the reference unpack internally.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (auto kind : {StrategyKind::kRwCp, StrategyKind::kSpecialized}) {
      offload::ReceiveConfig cfg;
      cfg.type = Datatype::hvector(1024, 96, 224, Datatype::int8());
      cfg.strategy = kind;
      cfg.faults.drop_rate = 0.08;
      cfg.faults.dup_rate = 0.05;
      cfg.faults.reorder_rate = 0.10;
      cfg.faults.seed = seed;
      const auto run = offload::run_receive(cfg);
      EXPECT_TRUE(run.result.verified)
          << strategy_name(kind) << " seed=" << seed;
    }
  }
}

TEST(FaultRunner, DuplicateHeavyDeliveryIsIdempotentForRwCp) {
  // Duplicates re-run handlers; RW-CP's checkpoint rollback must treat a
  // re-arrival of an already-unpacked packet as a plain (idempotent)
  // rewrite.
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::hvector(4096, 64, 160, Datatype::int8());
  cfg.strategy = StrategyKind::kRwCp;
  cfg.faults.dup_rate = 0.5;
  cfg.faults.reorder_rate = 0.3;
  cfg.faults.seed = 77;
  const auto run = offload::run_receive(cfg);
  EXPECT_TRUE(run.result.verified);
  EXPECT_GT(run.result.dup_deliveries, 0u);
  EXPECT_EQ(run.result.pkts_dropped, 0u);
}

TEST(FaultRunner, DuplicateHeavyReduceDoesNotDoubleAccumulate) {
  // The RMW counterpart of the RW-CP case above: a reduction handler is
  // NOT idempotent, so replayed packets must be gated at the NIC (seen
  // bitmap) instead of re-run. verified == true proves no contribution
  // was applied twice — the reference combines each stream element
  // exactly once.
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::contiguous(16384, Datatype::int32());
  cfg.strategy = StrategyKind::kRwCp;
  cfg.compute = spin::ComputeConfig{};  // streaming int32 sum
  cfg.faults.dup_rate = 0.5;
  cfg.faults.reorder_rate = 0.3;
  cfg.faults.seed = 77;
  const auto run = offload::run_receive(cfg);
  EXPECT_TRUE(run.result.verified);
  EXPECT_GT(run.result.dup_deliveries, 0u);
  // Every duplicate that reached the RMW context was suppressed.
  EXPECT_EQ(run.metrics.counter("nic.compute.dup_suppressed"),
            run.result.dup_deliveries);
}

TEST(FaultRunner, DuplicateHeavyAccumulateDoesNotDoubleAccumulate) {
  // Same contract through the scatter-accumulate walk: strided target,
  // 29-byte payloads (elements straddle packets), drops + dups + reorder.
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::vector(1024, 3, 5, Datatype::int32());
  cfg.strategy = StrategyKind::kRwCp;
  cfg.cost.pkt_payload = 29;
  spin::ComputeConfig cc;
  cc.family = spin::HandlerFamily::kAccumulate;
  cc.op = spin::ReduceOp::kMax;
  cfg.compute = cc;
  cfg.faults.drop_rate = 0.1;
  cfg.faults.dup_rate = 0.4;
  cfg.faults.reorder_rate = 0.3;
  cfg.faults.seed = 9;
  const auto run = offload::run_receive(cfg);
  EXPECT_TRUE(run.result.verified);
  EXPECT_GT(run.result.dup_deliveries, 0u);
  EXPECT_GT(run.metrics.counter("nic.compute.dup_suppressed"), 0u);
}

TEST(FaultRunner, SameFaultSeedIsDeterministic) {
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::hvector(2048, 128, 256, Datatype::int8());
  cfg.strategy = StrategyKind::kRwCp;
  cfg.faults = lossy_config(5);
  const auto a = offload::run_receive(cfg);
  const auto b = offload::run_receive(cfg);
  EXPECT_EQ(a.result.msg_time, b.result.msg_time);
  EXPECT_EQ(a.result.retransmits, b.result.retransmits);
  EXPECT_EQ(a.result.dup_deliveries, b.result.dup_deliveries);
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
}

TEST(FaultRunner, SinglePacketMessageSurvivesFaults) {
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::hvector(8, 64, 128, Datatype::int8());
  cfg.strategy = StrategyKind::kRwCp;
  cfg.faults.drop_rate = 0.3;
  cfg.faults.dup_rate = 0.3;
  cfg.faults.seed = 13;
  const auto run = offload::run_receive(cfg);
  EXPECT_EQ(run.result.packets, 1u);
  EXPECT_TRUE(run.result.verified);
}

TEST(FaultRunner, InactiveFaultsPublishNoReliabilityMetrics) {
  // Inertness: with all rates zero the lossless path runs and none of
  // the reliability counters may appear in the snapshot — their mere
  // registration would leak into every experiment's JSON "counters".
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::hvector(1024, 128, 256, Datatype::int8());
  cfg.strategy = StrategyKind::kRwCp;
  const auto run = offload::run_receive(cfg);
  EXPECT_TRUE(run.result.verified);
  EXPECT_FALSE(run.metrics.has_counter("p4.retransmits"));
  EXPECT_FALSE(run.metrics.has_counter("p4.pkts_dropped"));
  EXPECT_FALSE(run.metrics.has_counter("p4.acks"));
  EXPECT_FALSE(run.metrics.has_counter("nic.pkts.duplicate"));
  EXPECT_EQ(run.result.retransmits, 0u);
  // Same inertness rule for the compute plane: a run with no
  // ReceiveConfig::compute request registers no nic.compute.* metrics.
  for (const auto& [name, value] : run.metrics.counters) {
    EXPECT_NE(name.rfind("nic.compute.", 0), 0u)
        << name << " registered on a non-compute run";
  }
}

}  // namespace
}  // namespace netddt
