// Tests for the Portals 4 substrate: matching semantics, packetization,
// streaming puts, and event queues.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <vector>

#include "p4/event.hpp"
#include "p4/match.hpp"
#include "p4/packet.hpp"
#include "p4/put.hpp"
#include "reference/linear_match.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace netddt::p4 {
namespace {

MatchEntry me(std::uint64_t bits, std::uint64_t ignore = 0) {
  MatchEntry e;
  e.match_bits = bits;
  e.ignore_bits = ignore;
  e.length = 1 << 20;
  return e;
}

// Every matching-semantics test runs against both the hashed MatchList
// and the linear reference scan: the two must be indistinguishable.
// Kept as a 4-byte enum (linear = 0, hashed = 1) so the instantiated
// test names stay stable.
enum class Impl { kLinear, kHashed };

/// MatchList or the reference, picked by the test parameter.
class EitherList {
 public:
  explicit EitherList(Impl impl) : linear_(impl == Impl::kLinear) {}

  std::uint64_t append(ListKind list, const MatchEntry& e) {
    return linear_ ? ref_.append(list, e) : hashed_.append(list, e);
  }
  std::optional<MatchResult> match(std::uint64_t bits) {
    return linear_ ? ref_.match(bits) : hashed_.match(bits);
  }
  bool unlink(std::uint64_t id) {
    return linear_ ? ref_.unlink(id) : hashed_.unlink(id);
  }
  std::size_t priority_size() const {
    return linear_ ? ref_.priority_size() : hashed_.priority_size();
  }
  std::size_t overflow_size() const {
    return linear_ ? ref_.overflow_size() : hashed_.overflow_size();
  }

 private:
  bool linear_;
  MatchList hashed_;
  reference::LinearMatchList ref_;
};

class Matching : public ::testing::TestWithParam<Impl> {
 protected:
  EitherList ml{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(
    Engines, Matching, ::testing::Values(Impl::kLinear, Impl::kHashed),
    [](const auto& info) {
      return info.param == Impl::kLinear ? "linear" : "hashed";
    });

TEST_P(Matching, ExactBitsMatch) {
  ml.append(ListKind::kPriority, me(0xCAFE));
  auto hit = ml.match(0xCAFE);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->list, ListKind::kPriority);
  EXPECT_FALSE(ml.match(0xCAFE).has_value()) << "use_once entry must unlink";
}

TEST_P(Matching, MismatchReturnsNothing) {
  ml.append(ListKind::kPriority, me(0xCAFE));
  EXPECT_FALSE(ml.match(0xBEEF).has_value());
  EXPECT_EQ(ml.priority_size(), 1u);
}

TEST_P(Matching, IgnoreBitsMaskCompare) {
  ml.append(ListKind::kPriority, me(0xAB00, 0x00FF));
  EXPECT_TRUE(ml.match(0xAB42).has_value());
}

TEST_P(Matching, PrioritySearchedBeforeOverflow) {
  MatchEntry pri = me(7);
  pri.buffer_offset = 111;
  MatchEntry ovf = me(7);
  ovf.buffer_offset = 222;
  ml.append(ListKind::kOverflow, ovf);
  ml.append(ListKind::kPriority, pri);
  auto hit = ml.match(7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.buffer_offset, 111);
  EXPECT_EQ(hit->list, ListKind::kPriority);
}

TEST_P(Matching, OverflowUsedAsFallback) {
  ml.append(ListKind::kOverflow, me(7));
  auto hit = ml.match(7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->list, ListKind::kOverflow);
}

TEST_P(Matching, FifoOrderWithinList) {
  MatchEntry a = me(9), b = me(9);
  a.buffer_offset = 1;
  b.buffer_offset = 2;
  ml.append(ListKind::kPriority, a);
  ml.append(ListKind::kPriority, b);
  EXPECT_EQ(ml.match(9)->entry.buffer_offset, 1);
  EXPECT_EQ(ml.match(9)->entry.buffer_offset, 2);
}

TEST_P(Matching, PersistentEntryMatchesRepeatedly) {
  MatchEntry e = me(5);
  e.use_once = false;
  ml.append(ListKind::kPriority, e);
  EXPECT_TRUE(ml.match(5).has_value());
  EXPECT_TRUE(ml.match(5).has_value());
  EXPECT_EQ(ml.priority_size(), 1u);
}

TEST_P(Matching, UnlinkByHandle) {
  const auto id = ml.append(ListKind::kPriority, me(3));
  EXPECT_TRUE(ml.unlink(id));
  EXPECT_FALSE(ml.unlink(id));
  EXPECT_FALSE(ml.match(3).has_value());
}

TEST_P(Matching, UnlinkAfterUseOnceMatchReturnsFalse) {
  // The NIC retains a matched use_once entry for the message's lifetime
  // and unlinks by handle at completion; the engine-side unlink already
  // happened at match time and must report "gone" without damage.
  const auto id = ml.append(ListKind::kPriority, me(11));
  ASSERT_TRUE(ml.match(11).has_value());
  EXPECT_FALSE(ml.unlink(id));
  EXPECT_EQ(ml.priority_size(), 0u);
}

TEST_P(Matching, FifoAcrossIgnoreMaskOverlap) {
  // A wildcard (ignore low byte) and an exact entry both match 0xAB42.
  // Append order decides — the hashed engine keeps these in different
  // mask classes, so this pins its cross-class sequence arbitration.
  MatchEntry wild = me(0xAB00, 0x00FF);
  wild.buffer_offset = 1;
  MatchEntry exact = me(0xAB42);
  exact.buffer_offset = 2;
  ml.append(ListKind::kPriority, wild);
  ml.append(ListKind::kPriority, exact);
  EXPECT_EQ(ml.match(0xAB42)->entry.buffer_offset, 1);
  EXPECT_EQ(ml.match(0xAB42)->entry.buffer_offset, 2);

  // And the other append order.
  MatchEntry exact2 = me(0xCD42);
  exact2.buffer_offset = 3;
  MatchEntry wild2 = me(0xCD00, 0x00FF);
  wild2.buffer_offset = 4;
  ml.append(ListKind::kPriority, exact2);
  ml.append(ListKind::kPriority, wild2);
  EXPECT_EQ(ml.match(0xCD42)->entry.buffer_offset, 3);
  EXPECT_EQ(ml.match(0xCD42)->entry.buffer_offset, 4);
}

TEST_P(Matching, PriorityExhaustedBeforeOverflowWildcard) {
  // An older overflow wildcard must still lose to a younger priority
  // entry: list precedence beats append age.
  MatchEntry wild = me(0, ~std::uint64_t{0});  // matches anything
  wild.buffer_offset = 1;
  ml.append(ListKind::kOverflow, wild);
  MatchEntry pri = me(0x77);
  pri.buffer_offset = 2;
  ml.append(ListKind::kPriority, pri);
  auto hit = ml.match(0x77);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.buffer_offset, 2);
  EXPECT_EQ(hit->list, ListKind::kPriority);
  // Priority now empty -> the wildcard catches the next packet.
  EXPECT_EQ(ml.match(0x77)->entry.buffer_offset, 1);
}

TEST_P(Matching, SizesTrackAppendUnlinkAndMatch) {
  const auto a = ml.append(ListKind::kPriority, me(1));
  ml.append(ListKind::kPriority, me(2));
  ml.append(ListKind::kOverflow, me(3));
  EXPECT_EQ(ml.priority_size(), 2u);
  EXPECT_EQ(ml.overflow_size(), 1u);
  EXPECT_TRUE(ml.unlink(a));
  EXPECT_EQ(ml.priority_size(), 1u);
  ASSERT_TRUE(ml.match(3).has_value());
  EXPECT_EQ(ml.overflow_size(), 0u);
}

TEST_P(Matching, AppendWithPresetIdViolatesCheck) {
  sim::check::ScopedEnable checks(true);
  MatchEntry e = me(1);
  e.id = 42;  // handles are assigned by the MatchList, never the caller
  EXPECT_THROW(ml.append(ListKind::kPriority, e), sim::check::Violation);
}

// Differential: a random operation mix must leave both engines in
// lock-step — same hits (entry identity and list), same misses, same
// unlink outcomes, same sizes after every step.
TEST(MatchingDifferential, RandomOpsLinearVsHashed) {
  reference::LinearMatchList lin;
  MatchList hsh;
  sim::Rng rng(2026);
  // Small pools of bits/masks so matches, misses, and mask-class
  // overlaps all happen often.
  const std::uint64_t bit_pool[] = {0x10, 0x11, 0x20, 0x21, 0xFF00, 0xFF42};
  const std::uint64_t mask_pool[] = {0, 0, 0x00FF, ~std::uint64_t{0}};
  std::vector<std::uint64_t> ids;  // parallel handles (same assignment order)
  for (int step = 0; step < 4000; ++step) {
    const double op = rng.uniform();
    if (op < 0.45) {
      MatchEntry e = me(bit_pool[rng.below(6)],
                        mask_pool[rng.below(4)]);
      e.use_once = rng.uniform() < 0.7;
      e.buffer_offset = step;  // identity marker
      const auto list =
          rng.uniform() < 0.8 ? ListKind::kPriority : ListKind::kOverflow;
      const auto id_l = lin.append(list, e);
      const auto id_h = hsh.append(list, e);
      ASSERT_EQ(id_l, id_h);
      ids.push_back(id_l);
    } else if (op < 0.9) {
      const std::uint64_t bits = bit_pool[rng.below(6)];
      const auto hit_l = lin.match(bits);
      const auto hit_h = hsh.match(bits);
      ASSERT_EQ(hit_l.has_value(), hit_h.has_value()) << "step " << step;
      if (hit_l) {
        EXPECT_EQ(hit_l->entry.id, hit_h->entry.id) << "step " << step;
        EXPECT_EQ(hit_l->entry.buffer_offset, hit_h->entry.buffer_offset);
        EXPECT_EQ(hit_l->list, hit_h->list);
      }
    } else if (!ids.empty()) {
      const auto id = ids[rng.below(ids.size())];
      EXPECT_EQ(lin.unlink(id), hsh.unlink(id)) << "step " << step;
    }
    ASSERT_EQ(lin.priority_size(), hsh.priority_size()) << "step " << step;
    ASSERT_EQ(lin.overflow_size(), hsh.overflow_size()) << "step " << step;
  }
}

// Differential on the entry shapes the simulator posts: service
// tenants' (tenant + 1) << 40 | seq keys, collectives' (round << 32) |
// src keys, exact single-message bits (some persistent), and the
// facade's match-anything overflow buffer (ignore_bits = ~0, one-shot
// or persistent). The lists grow past 10k posted entries under a
// post/consume/unlink mix, then drain; both must agree on every handle,
// hit, miss, unlink and size.
TEST(MatchingDifferential, TrafficShapedLinearVsHashed) {
  reference::LinearMatchList lin;
  MatchList hsh;
  sim::Rng rng(17);
  std::vector<std::uint64_t> posted_bits;  // priority keys, maybe consumed
  std::vector<std::uint64_t> ids;
  std::uint64_t tenant_seq[4] = {};
  const std::uint64_t exact_bits[] = {0xABCD, 7, 8};
  std::size_t peak = 0;
  int step = 0;
  const auto check_sizes = [&] {
    ASSERT_EQ(lin.priority_size(), hsh.priority_size()) << "step " << step;
    ASSERT_EQ(lin.overflow_size(), hsh.overflow_size()) << "step " << step;
  };
  const auto append = [&] {
    MatchEntry e = me(0);
    ListKind list = ListKind::kPriority;
    const std::uint64_t shape = rng.below(16);
    if (shape < 9) {  // service tenant
      const std::uint64_t t = rng.below(4);
      e.match_bits = ((t + 1) << 40) | tenant_seq[t]++;
    } else if (shape < 13) {  // collective round
      e.match_bits = (rng.below(8) << 32) | rng.below(64);
    } else if (shape < 15) {  // single message
      e.match_bits = exact_bits[rng.below(3)];
      e.use_once = rng.uniform() < 0.5;
    } else {  // facade overflow buffer
      e.ignore_bits = ~std::uint64_t{0};
      e.use_once = rng.uniform() < 0.5;
      list = ListKind::kOverflow;
    }
    e.buffer_offset = step;  // identity marker
    const auto id_l = lin.append(list, e);
    ASSERT_EQ(id_l, hsh.append(list, e));
    ids.push_back(id_l);
    if (list == ListKind::kPriority) posted_bits.push_back(e.match_bits);
  };
  const auto match = [&] {
    // Mostly bits of a posted receive; sometimes an unexpected message
    // that only an overflow buffer can catch.
    const std::uint64_t bits =
        rng.uniform() < 0.9 && !posted_bits.empty()
            ? posted_bits[rng.below(posted_bits.size())]
            : (std::uint64_t{7} << 40) | rng.below(1 << 20);
    const auto hit_l = lin.match(bits);
    const auto hit_h = hsh.match(bits);
    ASSERT_EQ(hit_l.has_value(), hit_h.has_value()) << "step " << step;
    if (hit_l) {
      ASSERT_EQ(hit_l->entry.id, hit_h->entry.id) << "step " << step;
      EXPECT_EQ(hit_l->entry.buffer_offset, hit_h->entry.buffer_offset);
      EXPECT_EQ(hit_l->list, hit_h->list);
    }
  };
  const auto unlink = [&] {
    if (ids.empty()) return;
    const auto id = ids[rng.below(ids.size())];
    EXPECT_EQ(lin.unlink(id), hsh.unlink(id)) << "step " << step;
  };

  // Grow: posts outpace consumption until 10k entries are posted.
  for (; peak < 10000; ++step) {
    const double op = rng.uniform();
    if (op < 0.75) {
      append();
    } else if (op < 0.95) {
      match();
    } else {
      unlink();
    }
    check_sizes();
    if (HasFatalFailure()) return;
    peak = std::max(peak, hsh.priority_size() + hsh.overflow_size());
  }
  // Drain: consumption and unlinks outpace posts.
  for (int i = 0; i < 12000; ++i, ++step) {
    const double op = rng.uniform();
    if (op < 0.1) {
      append();
    } else if (op < 0.8) {
      match();
    } else {
      unlink();
    }
    check_sizes();
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(peak, 10000u);
  EXPECT_LT(hsh.priority_size(), peak) << "the drain phase must consume";
}

TEST(Packetize, SplitsAtPayloadBoundary) {
  std::vector<std::byte> data(5000);
  auto pkts = packetize(1, 0xAA, data, 2048);
  ASSERT_EQ(pkts.size(), 3u);
  EXPECT_TRUE(pkts[0].first);
  EXPECT_FALSE(pkts[0].last);
  EXPECT_EQ(pkts[0].payload_bytes, 2048u);
  EXPECT_EQ(pkts[1].offset, 2048u);
  EXPECT_TRUE(pkts[2].last);
  EXPECT_EQ(pkts[2].payload_bytes, 5000u - 4096u);
  const std::uint64_t total = std::accumulate(
      pkts.begin(), pkts.end(), std::uint64_t{0},
      [](std::uint64_t acc, const Packet& p) { return acc + p.payload_bytes; });
  EXPECT_EQ(total, data.size());
}

TEST(Packetize, SinglePacketMessageIsHeaderAndCompletion) {
  std::vector<std::byte> data(100);
  auto pkts = packetize(1, 0, data);
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_TRUE(pkts[0].first);
  EXPECT_TRUE(pkts[0].last);
}

TEST(Packetize, EmptyPutStillSendsHeader) {
  auto pkts = packetize(1, 0, {});
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_EQ(pkts[0].payload_bytes, 0u);
  EXPECT_TRUE(pkts[0].first && pkts[0].last);
}

TEST(StreamingPut, EmitsPacketsAsChunksAccumulate) {
  // 3000 B message, chunks of 1000 B, 2048 B packets: the first packet
  // can only be cut after the third chunk... no — after 2048 B staged,
  // i.e. during the third chunk's append.
  StreamingPut sp(1, 0, 3000);
  std::vector<std::byte> chunk(1000);
  EXPECT_TRUE(sp.stream(chunk, false).empty());
  EXPECT_TRUE(sp.stream(chunk, false).empty());
  auto pkts = sp.stream(chunk, true);
  ASSERT_EQ(pkts.size(), 2u);
  EXPECT_TRUE(pkts[0].first);
  EXPECT_EQ(pkts[0].payload_bytes, 2048u);
  EXPECT_TRUE(pkts[1].last);
  EXPECT_EQ(pkts[1].payload_bytes, 952u);
  EXPECT_TRUE(sp.complete());
}

TEST(StreamingPut, DataIsConcatenatedAcrossCalls) {
  StreamingPut sp(1, 0, 4096);
  std::vector<std::byte> a(3000), b(1096);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::byte{0xAA};
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::byte{0xBB};
  auto p1 = sp.stream(a, false);
  ASSERT_EQ(p1.size(), 1u);
  auto p2 = sp.stream(b, true);
  ASSERT_EQ(p2.size(), 1u);
  // Second packet spans the chunk boundary: 952 B of a then 1096 B of b.
  EXPECT_EQ(p2[0].data[0], std::byte{0xAA});
  EXPECT_EQ(p2[0].data[952], std::byte{0xBB});
  EXPECT_EQ(p2[0].payload_bytes, 2048u);
}

TEST(StreamingPut, SinglePacketMessage) {
  StreamingPut sp(7, 3, 512);
  std::vector<std::byte> chunk(512);
  auto pkts = sp.stream(chunk, true);
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_TRUE(pkts[0].first && pkts[0].last);
}

TEST(StreamingPut, TargetSeesOneMessage) {
  // All packets carry the same msg_id: transparent to the target.
  StreamingPut sp(42, 9, 8192);
  std::vector<std::byte> chunk(8192);
  auto pkts = sp.stream(chunk, true);
  ASSERT_EQ(pkts.size(), 4u);
  for (const auto& p : pkts) {
    EXPECT_EQ(p.msg_id, 42u);
    EXPECT_EQ(p.match_bits, 9u);
  }
  EXPECT_TRUE(pkts.front().first);
  EXPECT_TRUE(pkts.back().last);
  for (std::size_t i = 1; i + 1 < pkts.size(); ++i) {
    EXPECT_FALSE(pkts[i].first || pkts[i].last);
  }
}

TEST(Events, CountingEventsAccumulate) {
  EventQueue eq;
  eq.post(Event{EventKind::kPut, 1, 100, 0});
  eq.post(Event{EventKind::kUnpackComplete, 2, 50, 10});
  EXPECT_EQ(eq.count(), 2u);
  EXPECT_EQ(eq.byte_count(), 150u);
  ASSERT_NE(eq.find(EventKind::kUnpackComplete), nullptr);
  EXPECT_EQ(eq.find(EventKind::kUnpackComplete)->msg_id, 2u);
  auto drained = eq.drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_TRUE(eq.events().empty());
  EXPECT_EQ(eq.count(), 2u) << "counting events survive draining";
}

TEST(PacketCount, RoundsUp) {
  EXPECT_EQ(packet_count(0), 1u);
  EXPECT_EQ(packet_count(1), 1u);
  EXPECT_EQ(packet_count(2048), 1u);
  EXPECT_EQ(packet_count(2049), 2u);
  EXPECT_EQ(packet_count(4096), 2u);
}

}  // namespace
}  // namespace netddt::p4
