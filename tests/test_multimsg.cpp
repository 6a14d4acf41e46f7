// Concurrent-message tests: several messages with different execution
// contexts interleaved on one NIC must scatter independently and
// correctly — vHPU state is per message, match entries bind per
// message, and completion events fire per message.

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <vector>

#include "dataloop/segment.hpp"
#include "ddt/pack.hpp"
#include "offload/general.hpp"
#include "offload/specialized.hpp"
#include "p4/put.hpp"
#include "spin/link.hpp"
#include "spin/nic.hpp"

namespace netddt::offload {
namespace {

using ddt::Datatype;
using ddt::TypePtr;

struct Stream {
  TypePtr type;
  std::uint64_t match_bits;
  std::int64_t buffer_offset;
  std::vector<std::byte> packed;
};

class MultiMsgFixture : public ::testing::Test {
 protected:
  MultiMsgFixture()
      : host(8 << 20), nic(eng, host, spin::CostModel{}),
        link(eng, nic, nic.cost()) {}

  /// Register a message with its own plan and return its stream state.
  Stream add_stream(TypePtr type, std::uint64_t bits, std::int64_t offset,
                    bool use_general) {
    Stream s;
    s.type = type;
    s.match_bits = bits;
    s.buffer_offset = offset;
    s.packed.resize(type->size());
    for (std::size_t i = 0; i < s.packed.size(); ++i) {
      s.packed[i] = static_cast<std::byte>((i * 29 + bits) & 0xFF);
    }

    p4::MatchEntry me;
    me.match_bits = bits;
    me.buffer_offset = offset;
    me.length = 4 << 20;
    if (use_general) {
      GeneralConfig gc;
      gc.kind = StrategyKind::kRwCp;
      plans_.push_back(
          std::make_unique<GeneralPlan>(type, 1, gc, nic.cost()));
      me.context = nic.register_context(plans_.back()->context(nic));
    } else {
      spec_plans_.push_back(
          SpecializedPlan::create(type, 1, nic.cost(), false));
      me.context = nic.register_context(spec_plans_.back()->context(nic));
    }
    nic.match_list().append(p4::ListKind::kPriority, me);
    return s;
  }

  /// A sender on its own port (a Link serializes every send it makes,
  /// so concurrent senders each need one).
  spin::Link& sender() { return senders_.emplace_back(eng, nic, nic.cost()); }

  void verify(const Stream& s) {
    std::vector<std::byte> expected(4 << 20, std::byte{0});
    ddt::unpack(s.packed.data(), *s.type, 1, expected.data());
    for (const auto& r : s.type->flatten(1)) {
      ASSERT_EQ(std::memcmp(host.memory().data() + s.buffer_offset + r.offset,
                            expected.data() + r.offset, r.size),
                0)
          << "stream " << s.match_bits << " region at " << r.offset;
    }
  }

  sim::Engine eng;
  spin::Host host;
  spin::NicModel nic;
  spin::Link link;
  std::deque<spin::Link> senders_;
  std::vector<std::unique_ptr<GeneralPlan>> plans_;
  std::vector<std::unique_ptr<SpecializedPlan>> spec_plans_;
};

TEST_F(MultiMsgFixture, TwoGeneralMessagesInterleaved) {
  auto a = add_stream(Datatype::hvector(2048, 64, 128, Datatype::int8()),
                      1, 0, true);
  auto b = add_stream(Datatype::hvector(1024, 128, 512, Datatype::int8()),
                      2, 1 << 20, true);
  // Interleave: the messages go out on separate senders, so packets
  // of a and b alternate in arrival.
  auto pa = p4::packetize(101, 1, a.packed);
  auto pb = p4::packetize(102, 2, b.packed);
  sender().send(pa, 0);
  sender().send(pb, sim::ns(40));  // offset start: packets interleave
  eng.run();

  verify(a);
  verify(b);
  EXPECT_TRUE(nic.info(101)->done);
  EXPECT_TRUE(nic.info(102)->done);
}

TEST_F(MultiMsgFixture, MixedStrategiesShareTheHpuPool) {
  auto a = add_stream(Datatype::hvector(4096, 32, 64, Datatype::int8()),
                      1, 0, true);
  auto b = add_stream(Datatype::hvector(64, 2048, 4096, Datatype::int8()),
                      2, 1 << 20, false);
  auto c = add_stream(Datatype::hvector(512, 256, 512, Datatype::int8()),
                      3, 2 << 20, true);
  sender().send(p4::packetize(201, 1, a.packed), 0);
  sender().send(p4::packetize(202, 2, b.packed), sim::ns(100));
  sender().send(p4::packetize(203, 3, c.packed), sim::ns(200));
  eng.run();
  verify(a);
  verify(b);
  verify(c);
}

TEST_F(MultiMsgFixture, SameTypeTwoMessagesIndependentState) {
  // Two messages using two plans of the same datatype must not share
  // segments: their packets interleave heavily.
  auto type = Datatype::hvector(2048, 64, 128, Datatype::int8());
  auto a = add_stream(type, 1, 0, true);
  auto b = add_stream(type, 2, 1 << 20, true);
  sender().send(p4::packetize(301, 1, a.packed), 0);
  sender().send(p4::packetize(302, 2, b.packed), sim::ns(10));
  eng.run();
  verify(a);
  verify(b);
}

TEST_F(MultiMsgFixture, BackToBackMessagesReuseAPersistentEntry) {
  // A persistent (use_once=false) entry absorbs consecutive messages —
  // but each message gets fresh per-message vHPU state.
  auto type = Datatype::hvector(1024, 64, 128, Datatype::int8());
  GeneralConfig gc;
  gc.kind = StrategyKind::kRwCp;
  plans_.push_back(std::make_unique<GeneralPlan>(type, 1, gc, nic.cost()));

  p4::MatchEntry me;
  me.match_bits = 9;
  me.buffer_offset = 0;
  me.length = 4 << 20;
  me.use_once = false;
  me.context = nic.register_context(plans_.back()->context(nic));
  nic.match_list().append(p4::ListKind::kPriority, me);

  Stream s;
  s.type = type;
  s.match_bits = 9;
  s.buffer_offset = 0;
  s.packed.resize(type->size());
  for (std::size_t i = 0; i < s.packed.size(); ++i) {
    s.packed[i] = static_cast<std::byte>(i & 0xFF);
  }
  const auto t1 = link.send(p4::packetize(401, 9, s.packed), 0);
  link.send(p4::packetize(402, 9, s.packed), t1 + sim::us(50));
  eng.run();
  EXPECT_TRUE(nic.info(401)->done);
  EXPECT_TRUE(nic.info(402)->done);
  verify(s);
}

}  // namespace
}  // namespace netddt::offload
