// Property tests for the once-per-type region facts (Datatype::
// region_facts / region_count) and the host-unpack estimate built on
// them: both must agree with the flatten()-based reference on the
// Fig 16 application types, hand-built edge cases (negative lb,
// zero-size members, joining instances, negative displacements) and
// the fuzz generator's types, at several instance counts and cache-line
// sizes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/workloads.hpp"
#include "ddt/datatype.hpp"
#include "fuzz/ddt_gen.hpp"
#include "offload/host_model.hpp"
#include "reference/host_unpack.hpp"

namespace netddt {
namespace {

using ddt::Datatype;
using ddt::TypePtr;

constexpr std::uint64_t kCounts[] = {1, 2, 3, 7};

// 64 B is the model default; 24 B makes most extents straddle lines.
std::vector<spin::CostModel> cost_models() {
  spin::CostModel a;
  spin::CostModel b;
  b.cacheline_bytes = 24;
  return {a, b};
}

void expect_facts_match_flatten(const TypePtr& t, std::uint64_t count,
                                const std::string& what) {
  SCOPED_TRACE(what + " x" + std::to_string(count) + ": " + t->to_string());
  EXPECT_EQ(t->region_facts().regions, t->flatten(1));
  EXPECT_EQ(t->region_count(count), t->flatten(count).size());
  for (const spin::CostModel& cost : cost_models()) {
    const auto got = offload::host_unpack_estimate(*t, count, cost);
    const auto want =
        offload::reference::host_unpack_estimate(*t, count, cost);
    EXPECT_EQ(got.blocks, want.blocks);
    EXPECT_EQ(got.unpack_time, want.unpack_time);
    EXPECT_EQ(got.traffic_bytes, want.traffic_bytes)
        << "line " << cost.cacheline_bytes;
  }
}

TEST(RegionFacts, Fig16TypesMatchFlatten) {
  for (const auto& w : apps::fig16_workloads()) {
    const std::string what = w.app + "-" + w.input;
    expect_facts_match_flatten(w.type, w.count, what);
    for (std::uint64_t count : kCounts) {
      expect_facts_match_flatten(w.type, count, what);
    }
  }
}

TEST(RegionFacts, EdgeCasesMatchFlatten) {
  const auto i32 = Datatype::int32();
  const auto f64 = Datatype::float64();
  const std::vector<std::int64_t> one_one{1, 1};
  const std::vector<std::int64_t> gap8{0, 8};
  const std::vector<std::int64_t> negative{-300, 100};
  const std::vector<std::int64_t> zero_member{1, 0, 1};
  const std::vector<std::int64_t> zero_displs{0, 16, 40};
  const std::vector<TypePtr> zero_types{i32, f64, Datatype::contiguous(0, f64)};
  const std::vector<std::int64_t> zero_size_blocklens{1, 2, 1};

  // [0,4) [8,12), extent 12: the next instance starts where this ends.
  const auto joins = Datatype::hindexed(one_one, gap8, i32);
  const std::vector<std::pair<std::string, TypePtr>> cases{
      {"empty", Datatype::contiguous(0, i32)},
      {"dense", Datatype::contiguous(5, f64)},
      {"joins", joins},
      {"joins-single", Datatype::resized(i32, 0, 4)},
      {"vector", Datatype::hvector(4, 2, 24, f64)},
      {"negative-lb", Datatype::resized(Datatype::hvector(3, 1, 16, f64),
                                        -24, 80)},
      {"negative-lb-joins", Datatype::resized(joins, -4, 16)},
      {"negative-displs", Datatype::hindexed(one_one, negative, f64)},
      {"zero-extent", Datatype::resized(i32, 0, 0)},
      {"zero-blocklen-member",
       Datatype::struct_type(zero_member, zero_displs, zero_types)},
      {"zero-size-member",
       Datatype::struct_type(zero_size_blocklens, zero_displs, zero_types)},
      {"zero-size-extent", Datatype::resized(Datatype::contiguous(0, i32),
                                             0, 32)},
      {"subarray", Datatype::subarray(std::vector<std::int64_t>{6, 10},
                                      std::vector<std::int64_t>{3, 4},
                                      std::vector<std::int64_t>{1, 5}, f64)},
      {"nested-resized",
       Datatype::hvector(3, 2, 100,
                         Datatype::resized(joins, -8, 20))},
  };
  for (const auto& [name, t] : cases) {
    for (std::uint64_t count : kCounts) {
      expect_facts_match_flatten(t, count, name);
    }
  }
  EXPECT_TRUE(joins->region_facts().instances_join);
  EXPECT_EQ(joins->region_count(3), 4u);  // 3 * 2 - 2 boundary merges
  EXPECT_EQ(Datatype::contiguous(0, i32)->region_count(3), 0u);
}

TEST(RegionFacts, FuzzTypesMatchFlatten) {
  for (std::uint64_t seed = 0; seed < 3000; ++seed) {
    const TypePtr t = fuzz::build(fuzz::generate(seed).spec);
    for (std::uint64_t count : kCounts) {
      expect_facts_match_flatten(t, count, "seed " + std::to_string(seed));
    }
    if (HasFailure()) break;  // one repro is enough
  }
}

TEST(RegionFacts, ComputedOncePerType) {
  // [0,4) [8,12) ... [120,124), extent 124: instance i + 1 starts where
  // instance i ends, so consecutive instances join.
  const auto t = Datatype::hvector(16, 1, 8, Datatype::int32());
  const ddt::RegionFacts& first = t->region_facts();
  EXPECT_EQ(&first, &t->region_facts());
  EXPECT_EQ(first.regions.size(), 16u);
  EXPECT_TRUE(first.instances_join);
  EXPECT_EQ(t->region_count(2), 31u);
  // Padding the extent leaves a gap between instances.
  const auto padded = Datatype::resized(t, 0, 128);
  EXPECT_FALSE(padded->region_facts().instances_join);
  EXPECT_EQ(padded->region_count(2), 32u);
}

}  // namespace
}  // namespace netddt
