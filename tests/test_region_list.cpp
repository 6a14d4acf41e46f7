// Property tests for ddt::RegionList, the one window walk behind the
// region-list handlers (Specialized region-list mode, iovec, the
// kAccumulate compute plan, the outbound gather): for random stream
// windows over the Fig 16 application types, hand-built edge cases and
// the fuzz generator's types, walk(first, last) must emit exactly the
// pieces a hand slice of flatten(count) gives. Also the search-step
// count the handlers charge to find a window's start.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "apps/workloads.hpp"
#include "ddt/datatype.hpp"
#include "fuzz/ddt_gen.hpp"

namespace netddt {
namespace {

using ddt::Datatype;
using ddt::Region;
using ddt::RegionList;
using ddt::TypePtr;

struct Piece {
  std::size_t idx = 0;
  std::int64_t host_off = 0;
  std::uint64_t stream_off = 0;
  std::uint64_t len = 0;

  friend bool operator==(const Piece&, const Piece&) = default;
};

std::ostream& operator<<(std::ostream& os, const Piece& p) {
  return os << "{idx " << p.idx << ", host " << p.host_off << ", stream "
            << p.stream_off << ", len " << p.len << "}";
}

// The oracle: intersect [first, last) with each region's stream span.
std::vector<Piece> hand_slice(const std::vector<Region>& regions,
                              std::uint64_t first, std::uint64_t last) {
  std::vector<Piece> out;
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < regions.size() && at < last; ++i) {
    const std::uint64_t lo = std::max(first, at);
    const std::uint64_t hi = std::min(last, at + regions[i].size);
    if (lo < hi) {
      const std::int64_t host =
          regions[i].offset + static_cast<std::int64_t>(lo - at);
      out.push_back({i, host, lo, hi - lo});
    }
    at += regions[i].size;
  }
  return out;
}

std::vector<Piece> walked(const RegionList& list, std::uint64_t first,
                          std::uint64_t last) {
  std::vector<Piece> out;
  list.walk(first, last,
            [&out](std::size_t idx, std::int64_t host_off,
                   std::uint64_t stream_off, std::uint64_t len) {
              out.push_back({idx, host_off, stream_off, len});
            });
  return out;
}

// ceil(log2(n)) by doubling, independent of the floating-point form.
std::uint32_t ceil_log2(std::uint64_t n) {
  std::uint32_t k = 0;
  while ((std::uint64_t{1} << k) < n) ++k;
  return k;
}

void expect_walk_matches(const TypePtr& t, std::uint64_t count,
                         std::uint64_t seed, const std::string& what) {
  SCOPED_TRACE(what + " x" + std::to_string(count) + ": " + t->to_string());
  const std::vector<Region> flat = t->flatten(count);
  const RegionList list = t->region_list(count);
  ASSERT_EQ(list.regions(), flat);
  ASSERT_EQ(list.prefix().size(), flat.size() + 1);
  const std::uint64_t total = t->size() * count;
  EXPECT_EQ(list.prefix().back(), total);
  EXPECT_EQ(list.search_steps(), ceil_log2(flat.size() + 1));

  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows{
      {0, total}, {0, 0}, {total, total}};
  std::mt19937_64 rng(seed);
  for (int i = 0; total > 0 && i < 24; ++i) {
    // Packet-sized windows (up to 8 KiB) and 1-byte ones.
    const std::uint64_t first = rng() % (total + 1);
    const std::uint64_t len = rng() % (std::min<std::uint64_t>(
                                           total - first, 8192) + 1);
    windows.emplace_back(first, first + len);
    const std::uint64_t one = rng() % total;
    windows.emplace_back(one, one + 1);
  }
  // Windows that start and end exactly on, and one byte off, region
  // boundaries.
  for (std::size_t i = 0; i + 1 < list.prefix().size(); ++i) {
    const std::uint64_t lo = list.prefix()[i];
    const std::uint64_t hi = list.prefix()[i + 1];
    windows.emplace_back(lo, hi);
    if (hi - lo > 1) windows.emplace_back(lo + 1, hi - 1);
    if (i > 24) break;
  }
  for (const auto& [first, last] : windows) {
    EXPECT_EQ(walked(list, first, last), hand_slice(flat, first, last))
        << "window [" << first << ", " << last << ")";
  }
}

TEST(RegionList, Fig16TypesMatchFlatten) {
  for (const auto& w : apps::fig16_workloads()) {
    const std::string what = w.app + "-" + w.input;
    for (std::uint64_t count : {w.count, w.count + 1}) {
      expect_walk_matches(w.type, count, count, what);
    }
  }
}

TEST(RegionList, EdgeCasesMatchFlatten) {
  const auto i32 = Datatype::int32();
  const std::vector<std::int64_t> one_one{1, 1};
  const std::vector<std::int64_t> gap8{0, 8};
  const std::vector<std::int64_t> negative{-300, 100};
  const std::vector<std::int64_t> zero_member{1, 0, 1};
  const std::vector<std::int64_t> zero_size_blocklens{1, 2, 1};
  const std::vector<std::int64_t> zero_displs{0, 16, 40};
  const std::vector<TypePtr> zero_types{i32, i32,
                                        Datatype::contiguous(0, i32)};
  const auto joins = Datatype::hindexed(one_one, gap8, i32);
  const std::vector<std::pair<std::string, TypePtr>> cases{
      {"empty", Datatype::contiguous(0, i32)},
      {"zero-count vector", Datatype::vector(0, 2, 4, i32)},
      {"dense", Datatype::contiguous(5, i32)},
      {"joins", joins},
      {"negative-lb-joins", Datatype::resized(joins, -4, 16)},
      {"negative-displs", Datatype::hindexed(one_one, negative, i32)},
      {"zero-length block",
       Datatype::hindexed(zero_member, zero_displs, i32)},
      {"zero-blocklen member",
       Datatype::struct_type(zero_member, zero_displs, zero_types)},
      {"zero-size member",
       Datatype::struct_type(zero_size_blocklens, zero_displs, zero_types)},
      {"strided bytes", Datatype::hvector(9, 3, 7, Datatype::int8())},
  };
  for (const auto& [what, t] : cases) {
    for (std::uint64_t count : {1, 2, 5}) {
      expect_walk_matches(t, count, count, what);
    }
  }
}

TEST(RegionList, EmptyListsWalkNothing) {
  const RegionList placeholder;
  EXPECT_EQ(placeholder.size(), 0u);
  EXPECT_TRUE(placeholder.prefix().empty());
  EXPECT_EQ(placeholder.search_steps(), 0u);
  EXPECT_TRUE(walked(placeholder, 0, 0).empty());
  const RegionList built{std::vector<Region>{}};
  EXPECT_EQ(built.prefix(), std::vector<std::uint64_t>{0});
  EXPECT_EQ(built.search_steps(), 0u);
  EXPECT_TRUE(walked(built, 0, 0).empty());
}

TEST(RegionList, FuzzTypesMatchFlatten) {
  for (std::uint64_t seed = 0; seed < 3000; ++seed) {
    const auto gen = fuzz::generate(seed);
    const TypePtr t = fuzz::build(gen.spec);
    expect_walk_matches(t, 1 + seed % 3, seed,
                        "fuzz seed " + std::to_string(seed));
  }
}

// The integer search-step count every region-list, program and indexed-
// leaf handler charges agrees with the floating-point ceil(log2(m)) the
// handlers once computed per packet.
TEST(SearchSteps, BitWidthMatchesCeilLog2) {
  for (std::uint64_t m = 1; m <= (std::uint64_t{1} << 20); ++m) {
    const auto want = static_cast<std::uint32_t>(
        std::ceil(std::log2(static_cast<double>(m))));
    ASSERT_EQ(ddt::search_steps(m), want) << "m = " << m;
  }
  EXPECT_EQ(ddt::search_steps(0), 0u);
  EXPECT_EQ(RegionList().search_steps(), 0u);
  EXPECT_EQ(RegionList({{0, 4}, {8, 4}, {16, 4}}).search_steps(), 2u);
}

}  // namespace
}  // namespace netddt
