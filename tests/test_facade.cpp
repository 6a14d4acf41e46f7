// Tests for the MPI-integration facade: strategy selection at commit,
// plan caching, NIC-memory LRU eviction with priorities, host fallback,
// and end-to-end receives through the facade.

#include <gtest/gtest.h>

#include <cstring>

#include "ddt/pack.hpp"
#include "fabric/fabric.hpp"
#include "offload/facade.hpp"
#include "p4/put.hpp"
#include "sim/check.hpp"

namespace netddt::offload {
namespace {

using ddt::Datatype;
using ddt::TypePtr;

TypePtr vec(std::int64_t count, std::int64_t block = 64) {
  return Datatype::hvector(count, block, 2 * block, Datatype::int8());
}

TypePtr nested() {
  auto inner = Datatype::vector(4, 2, 4, Datatype::float64());
  return Datatype::hvector(8, 1, 1024, inner);
}

class FacadeFixture : public ::testing::Test {
 protected:
  FacadeFixture()
      : host(1 << 22),
        nic(eng, host, spin::CostModel{}, spin::NicConfig{16, 64 << 10}),
        link(eng, fabric::point_to_point(nic.cost())),
        engine(nic) {
    link.attach(1, nic);
  }

  sim::Engine eng;
  spin::Host host;
  spin::NicModel nic;
  fabric::Fabric link;  // node 0 -> this NIC (node 1)
  DdtEngine engine;
};

TEST_F(FacadeFixture, SpecializedChosenForLeafTypes) {
  const auto h = engine.commit(vec(128));
  const auto post = engine.post_receive(h, 1, 0, 1 << 20, 7);
  EXPECT_EQ(post.strategy, StrategyKind::kSpecialized);
  EXPECT_GT(post.nic_bytes, 0u);
}

TEST_F(FacadeFixture, RwCpChosenForNestedTypes) {
  const auto h = engine.commit(nested());
  const auto post = engine.post_receive(h, 1, 0, 1 << 20, 7);
  EXPECT_EQ(post.strategy, StrategyKind::kRwCp);
}

TEST_F(FacadeFixture, AttributesCanDisableOffload) {
  TypeAttributes attrs;
  attrs.allow_offload = false;
  const auto h = engine.commit(vec(128), attrs);
  const auto post = engine.post_receive(h, 1, 0, 1 << 20, 7);
  EXPECT_EQ(post.strategy, StrategyKind::kHostUnpack);
  EXPECT_EQ(engine.host_fallbacks(), 1u);
}

TEST_F(FacadeFixture, AttributesCanForceGeneralStrategy) {
  TypeAttributes attrs;
  attrs.prefer_specialized = false;
  const auto h = engine.commit(vec(128), attrs);
  const auto post = engine.post_receive(h, 1, 0, 1 << 20, 7);
  EXPECT_EQ(post.strategy, StrategyKind::kRwCp);
}

TEST_F(FacadeFixture, PlanCachedAcrossPosts) {
  TypeAttributes attrs;
  attrs.prefer_specialized = false;  // RW-CP: non-trivial setup cost
  const auto h = engine.commit(vec(4096), attrs);
  const auto first = engine.post_receive(h, 1, 0, 1 << 22, 7);
  EXPECT_GT(first.host_setup, 0) << "first post pays checkpoint creation";
  const auto second = engine.post_receive(h, 1, 0, 1 << 22, 8);
  EXPECT_EQ(second.host_setup, 0) << "cached plan: no host setup";
  EXPECT_EQ(engine.cached_plans(), 1u);
}

TEST_F(FacadeFixture, DistinctCountsGetDistinctPlans) {
  const auto h = engine.commit(vec(512));
  engine.post_receive(h, 1, 0, 1 << 22, 7);
  engine.post_receive(h, 2, 0, 1 << 22, 8);
  EXPECT_EQ(engine.cached_plans(), 2u);
}

TEST_F(FacadeFixture, LruEvictionWhenNicMemoryTight) {
  // SPEC-like region-list plans are large; the 64 KiB NIC memory cannot
  // hold many at once.
  TypeAttributes attrs;
  attrs.prefer_specialized = false;
  std::vector<DdtEngine::TypeHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(engine.commit(vec(2048 + 64 * i), attrs));
  }
  for (auto h : handles) {
    const auto post = engine.post_receive(h, 1, 0, 1 << 22, 7);
    EXPECT_NE(post.strategy, StrategyKind::kHostUnpack);
  }
  EXPECT_GT(engine.evictions(), 0u);
  EXPECT_LE(nic.memory().used(), nic.memory().capacity());
}

TEST_F(FacadeFixture, HighPriorityTypesSurviveEviction) {
  TypeAttributes low;
  low.prefer_specialized = false;
  low.priority = 0;
  TypeAttributes high = low;
  high.priority = 10;

  const auto hi = engine.commit(vec(4096), high);
  engine.post_receive(hi, 1, 0, 1 << 22, 1);
  const auto evictions_before = engine.evictions();

  // Low-priority types may evict each other but never the high-priority
  // plan.
  for (int i = 0; i < 6; ++i) {
    const auto lo = engine.commit(vec(3000 + i * 64), low);
    engine.post_receive(lo, 1, 0, 1 << 22,
                        2 + static_cast<std::uint64_t>(i));
  }
  EXPECT_GT(engine.evictions(), evictions_before);
  // The high-priority plan is still resident: re-posting costs nothing.
  const auto again = engine.post_receive(hi, 1, 0, 1 << 22, 99);
  EXPECT_EQ(again.host_setup, 0);
  EXPECT_NE(again.strategy, StrategyKind::kHostUnpack);
}

TEST_F(FacadeFixture, EndToEndReceiveThroughFacade) {
  auto type = vec(512, 128);
  const auto h = engine.commit(type);
  const auto post = engine.post_receive(h, 1, 0, 1 << 22, 0x77);
  ASSERT_EQ(post.strategy, StrategyKind::kSpecialized);

  std::vector<std::byte> packed(type->size());
  for (std::size_t i = 0; i < packed.size(); ++i) {
    packed[i] = static_cast<std::byte>(i & 0xFF);
  }
  link.send(0, 1, p4::packetize(1, 0x77, packed), 0);
  eng.run();

  ASSERT_NE(host.events().find(p4::EventKind::kUnpackComplete), nullptr);
  std::vector<std::byte> expected(1 << 22, std::byte{0});
  ddt::unpack(packed.data(), *type, 1, expected.data());
  for (const auto& r : type->flatten(1)) {
    EXPECT_EQ(std::memcmp(host.memory().data() + r.offset,
                          expected.data() + r.offset, r.size),
              0);
  }
}

TEST_F(FacadeFixture, UnexpectedMessageLandsInOverflowBuffer) {
  // No receive posted: the message must land packed in the overflow
  // bounce buffer, ready for a host-side unpack when the late receive
  // arrives (paper Sec 3.2.6).
  engine.post_overflow_buffer(/*buffer_offset=*/1 << 20, /*bytes=*/1 << 20);

  auto type = vec(256, 64);
  std::vector<std::byte> packed(type->size());
  for (std::size_t i = 0; i < packed.size(); ++i) {
    packed[i] = static_cast<std::byte>(i * 3 + 1);
  }
  link.send(0, 1, p4::packetize(5, /*match_bits=*/0xDEAD, packed), 0);
  eng.run();

  const auto* ev = host.events().find(p4::EventKind::kPutOverflow);
  ASSERT_NE(ev, nullptr) << "unexpected message must signal overflow";
  EXPECT_EQ(ev->bytes, packed.size());
  // The bounce buffer holds the packed stream...
  ASSERT_EQ(std::memcmp(host.memory().data() + (1 << 20), packed.data(),
                        packed.size()),
            0);
  // ...which the late receive unpacks on the host.
  std::vector<std::byte> unpacked(1 << 20, std::byte{0});
  ddt::unpack(host.memory().data() + (1 << 20), *type, 1, unpacked.data());
  std::vector<std::byte> expected(1 << 20, std::byte{0});
  ddt::unpack(packed.data(), *type, 1, expected.data());
  EXPECT_EQ(unpacked, expected);
}

TEST_F(FacadeFixture, OverflowBufferIgnoredWhenReceiveIsPosted) {
  engine.post_overflow_buffer(1 << 20, 1 << 20);
  const auto h = engine.commit(vec(64));
  const auto post = engine.post_receive(h, 1, 0, 1 << 20, 0x77);
  EXPECT_EQ(post.strategy, StrategyKind::kSpecialized);

  std::vector<std::byte> packed(64 * 64);
  link.send(0, 1, p4::packetize(6, 0x77, packed), 0);
  eng.run();
  // Priority entry wins: the message was processed, not overflowed.
  EXPECT_NE(host.events().find(p4::EventKind::kUnpackComplete), nullptr);
  EXPECT_EQ(host.events().find(p4::EventKind::kPutOverflow), nullptr);
}

TEST_F(FacadeFixture, FreeTypeReleasesNicMemory) {
  const auto h = engine.commit(vec(4096));
  engine.post_receive(h, 1, 0, 1 << 22, 7);
  const auto used = nic.memory().used();
  EXPECT_GT(used, 0u);
  engine.free_type(h);
  EXPECT_LT(nic.memory().used(), used);
}

TEST_F(FacadeFixture, FreeingATypeKeepsItsPendingReceive) {
  // MPI allows freeing a type with receives still pending: each posted
  // receive below, one per strategy the facade picks, must still land
  // its message through the freed type's plan.
  const TypePtr types[] = {vec(256, 64), nested()};
  std::int64_t base = 0;
  std::uint64_t id = 1;
  for (const TypePtr& type : types) {
    const auto h = engine.commit(type);
    const auto post = engine.post_receive(h, 1, base, 1 << 20, 0x50 + id);
    ASSERT_NE(post.strategy, StrategyKind::kHostUnpack);
    engine.free_type(h);
    EXPECT_EQ(nic.memory().used(), 0u);

    std::vector<std::byte> packed(type->size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
      packed[i] = static_cast<std::byte>(i * 7 + id);
    }
    link.send(0, 1, p4::packetize(id, 0x50 + id, packed), eng.now());
    eng.run();
    std::vector<std::byte> expected(1 << 20, std::byte{0});
    ddt::unpack(packed.data(), *type, 1, expected.data());
    for (const auto& r : type->flatten(1)) {
      ASSERT_EQ(std::memcmp(host.memory().data() + base + r.offset,
                            expected.data() + r.offset, r.size),
                0)
          << strategy_name(post.strategy) << " region at " << r.offset;
    }
    base += 1 << 20;
    ++id;
  }
}

TEST_F(FacadeFixture, CommitOfNullOrEmptyTypeIsAViolation) {
  EXPECT_THROW(engine.commit(nullptr), sim::check::Violation);
  EXPECT_THROW(engine.commit(Datatype::contiguous(0, Datatype::int8())),
               sim::check::Violation);
}

TEST_F(FacadeFixture, PostOnUncommittedHandleIsAViolation) {
  const auto h = engine.commit(vec(128));
  engine.free_type(h);
  EXPECT_THROW(engine.post_receive(h, 1, 0, 1 << 20, 7),
               sim::check::Violation);
  EXPECT_THROW(engine.post_receive(h + 1, 1, 0, 1 << 20, 7),
               sim::check::Violation);
}

// Every post of one cached plan attaches the same execution context,
// also after the plan was evicted from NIC memory and re-allocated: the
// handlers reference the plan, and the NIC keeps each registered
// context for its lifetime.
TEST(DdtEngine, PostsOfOnePlanShareOneContext) {
  sim::Engine eng;
  spin::Host host(1 << 22);
  spin::NicModel nic(eng, host, spin::CostModel{},
                     spin::NicConfig{16, 64 << 10});
  fabric::Fabric link(eng, fabric::point_to_point(nic.cost()));
  link.attach(1, nic);
  DdtEngine engine(nic);

  TypeAttributes attrs;
  attrs.prefer_specialized = false;  // RW-CP plans: large, evictable
  const TypePtr type = vec(2048);
  const auto a = engine.commit(type, attrs);
  const std::size_t before = nic.registered_contexts();
  for (std::uint64_t bits = 1; bits <= 3; ++bits) {
    EXPECT_EQ(engine.post_receive(a, 1, 0, 1 << 22, bits).strategy,
              StrategyKind::kRwCp);
  }
  EXPECT_EQ(nic.registered_contexts(), before + 1);

  // Colder plans fill the 64 KiB NIC memory and evict `a` (the least
  // recently used); each registers its own context once.
  for (int i = 1; i < 6; ++i) {
    const auto other = engine.commit(vec(2048 + 64 * i), attrs);
    engine.post_receive(other, 1, 0, 1 << 22, 100 + i);
    engine.post_receive(other, 1, 0, 1 << 22, 200 + i);
  }
  ASSERT_GT(engine.evictions(), 0u);
  EXPECT_EQ(nic.registered_contexts(), before + 6);

  // Re-posting `a` re-allocates its NIC memory (evicting another plan)
  // and reuses its context; a message then lands through it.
  const auto again = engine.post_receive(a, 1, 0, 1 << 22, 0x77);
  EXPECT_EQ(again.strategy, StrategyKind::kRwCp);
  EXPECT_TRUE(again.evicted_others) << "`a` was still resident";
  EXPECT_EQ(nic.registered_contexts(), before + 6);

  std::vector<std::byte> packed(type->size());
  for (std::size_t i = 0; i < packed.size(); ++i) {
    packed[i] = static_cast<std::byte>(i * 13 + 1);
  }
  link.send(0, 1, p4::packetize(1, 0x77, packed), 0);
  eng.run();
  ASSERT_NE(host.events().find(p4::EventKind::kUnpackComplete), nullptr);
  std::vector<std::byte> expected(1 << 22, std::byte{0});
  ddt::unpack(packed.data(), *type, 1, expected.data());
  for (const auto& r : type->flatten(1)) {
    ASSERT_EQ(std::memcmp(host.memory().data() + r.offset,
                          expected.data() + r.offset, r.size),
              0)
        << "region at " << r.offset;
  }
}

}  // namespace
}  // namespace netddt::offload
