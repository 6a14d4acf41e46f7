// Tests for the steady-state service driver: completion and verified
// correctness under concurrency, admission-window backpressure,
// determinism across repeats, engine-equivalence, and fairness for
// symmetric tenants.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "ddt/datatype.hpp"
#include "offload/service.hpp"

namespace netddt::offload {
namespace {

// Two symmetric tenants, 4 KiB strided messages, arrivals fast enough
// that many messages are in flight at once.
ServiceConfig small_config(std::uint64_t messages = 48) {
  ServiceConfig cfg;
  for (int t = 0; t < 2; ++t) {
    ServiceTenant tenant;
    tenant.type = ddt::Datatype::hvector(8, 256, 512, ddt::Datatype::int8());
    tenant.count = 2;  // 4 KiB per message
    tenant.arrivals.rate = 2e6;  // msgs/s: ~64 Gbit/s offered per tenant
    tenant.messages = messages;
    cfg.tenants.push_back(tenant);
  }
  cfg.seed = 7;
  return cfg;
}

bool runs_equal(const ServiceRun& a, const ServiceRun& b) {
  if (a.goodput_gbps != b.goodput_gbps || a.fairness != b.fairness ||
      a.makespan != b.makespan || a.peak_inflight != b.peak_inflight ||
      a.evictions != b.evictions ||
      a.host_fallbacks != b.host_fallbacks ||
      a.metrics.counters != b.metrics.counters) {
    return false;
  }
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    const TenantStats& x = a.tenants[t];
    const TenantStats& y = b.tenants[t];
    if (x.completed != y.completed || x.backpressured != y.backpressured ||
        x.bytes != y.bytes || x.first_arrival != y.first_arrival ||
        x.last_done != y.last_done || x.goodput_gbps != y.goodput_gbps) {
      return false;
    }
  }
  return true;
}

// Invalid configs throw (in every build type) with the field's name.
void expect_invalid(const ServiceConfig& cfg, const std::string& field) {
  try {
    run_service(cfg);
    ADD_FAILURE() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(Service, RejectsNoTenants) {
  ServiceConfig cfg = small_config();
  cfg.tenants.clear();
  expect_invalid(cfg, "ServiceConfig.tenants");
}

TEST(Service, RejectsZeroAdmissionWindow) {
  ServiceConfig cfg = small_config();
  cfg.max_inflight = 0;
  expect_invalid(cfg, "ServiceConfig.max_inflight");
}

TEST(Service, RejectsTenantWithoutType) {
  ServiceConfig cfg = small_config();
  cfg.tenants[1].type = nullptr;
  expect_invalid(cfg, "ServiceConfig.tenants[1].type");
}

TEST(Service, RejectsTenantWithZeroCount) {
  ServiceConfig cfg = small_config();
  cfg.tenants[0].count = 0;
  expect_invalid(cfg, "ServiceConfig.tenants[0].count");
}

TEST(Service, RejectsTenantWithZeroMessages) {
  ServiceConfig cfg = small_config();
  cfg.tenants[1].messages = 0;
  expect_invalid(cfg, "ServiceConfig.tenants[1].messages");
}

TEST(Service, AllMessagesCompleteAndVerify) {
  ServiceConfig cfg = small_config();
  cfg.validate = true;
  cfg.verify_every = 1;  // verify every message on this small run
  const ServiceRun run = run_service(cfg);
  for (const auto& ts : run.tenants) {
    EXPECT_EQ(ts.completed, ts.offered);
    EXPECT_EQ(ts.completed, 48u);
    EXPECT_GT(ts.goodput_gbps, 0.0);
    EXPECT_EQ(ts.completion.count(), ts.completed);
  }
  EXPECT_EQ(run.verified, 96u);
  EXPECT_EQ(run.verify_failures, 0u);
  EXPECT_GT(run.peak_inflight, 1u) << "arrivals must actually overlap";
}

TEST(Service, RepeatRunsAreIdentical) {
  const ServiceRun a = run_service(small_config());
  const ServiceRun b = run_service(small_config());
  EXPECT_TRUE(runs_equal(a, b));
}

TEST(Service, SeedChangesTheSchedule) {
  ServiceConfig cfg = small_config();
  const ServiceRun a = run_service(cfg);
  cfg.seed = 8;
  const ServiceRun b = run_service(cfg);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(Service, AdmissionWindowBackpressures) {
  ServiceConfig cfg = small_config();
  cfg.max_inflight = 2;
  const ServiceRun run = run_service(cfg);
  std::uint64_t waited = 0;
  for (const auto& ts : run.tenants) {
    EXPECT_EQ(ts.completed, ts.offered) << "backpressure must not drop";
    waited += ts.backpressured;
  }
  EXPECT_GT(waited, 0u);
  EXPECT_LE(run.peak_inflight, 2u);
}

TEST(Service, SymmetricTenantsAreFair) {
  const ServiceRun run = run_service(small_config(64));
  EXPECT_GT(run.fairness, 0.95);
  EXPECT_LE(run.fairness, 1.0);
}

TEST(Service, BurstyArrivalsStillDrain) {
  ServiceConfig cfg = small_config();
  for (auto& t : cfg.tenants) t.arrivals.kind = sim::ArrivalKind::kOnOff;
  cfg.validate = true;
  const ServiceRun run = run_service(cfg);
  for (const auto& ts : run.tenants) EXPECT_EQ(ts.completed, ts.offered);
  EXPECT_EQ(run.verify_failures, 0u);
}

TEST(Service, LossyWireAtHighLoadVerifiesEveryMessage) {
  // Reliable puts on the shared sender port: drops, duplicates and
  // reorder at 0.8 offered load. Every put completes and every message
  // lands byte-exact.
  ServiceConfig cfg = small_config();
  const double msg_bits = 4096 * 8.0;
  for (auto& t : cfg.tenants) {
    t.arrivals.rate = 0.8 * cfg.cost.line_rate_gbps * 1e9 / msg_bits / 2.0;
  }
  cfg.faults.drop_rate = 0.05;
  cfg.faults.dup_rate = 0.05;
  cfg.faults.reorder_rate = 0.1;
  cfg.faults.seed = 31;
  cfg.validate = true;
  cfg.verify_every = 1;
  const ServiceRun run = run_service(cfg);
  for (const auto& ts : run.tenants) {
    EXPECT_EQ(ts.completed, ts.offered);
    EXPECT_EQ(ts.failed, 0u);
  }
  EXPECT_EQ(run.put_failures, 0u);
  EXPECT_EQ(run.verified, 96u);
  EXPECT_EQ(run.verify_failures, 0u);
  EXPECT_GT(run.metrics.counter("p4.retransmits"), 0u);
  EXPECT_GT(run.metrics.counter("p4.dup_deliveries"), 0u);
  EXPECT_GT(run.peak_inflight, 1u) << "arrivals must actually overlap";
}

}  // namespace
}  // namespace netddt::offload
