// Tests for MPI_Type_create_darray: verified against a brute-force
// owner computation over the global index space, plus completeness
// (every element owned by exactly one rank) and offload integration.

#include <gtest/gtest.h>

#include <vector>

#include "ddt/darray.hpp"
#include "ddt/pack.hpp"
#include "offload/runner.hpp"
#include "sim/check.hpp"

namespace netddt::ddt {
namespace {

struct Grid {
  std::vector<std::int64_t> gsizes;
  std::vector<Distribution> distribs;
  std::vector<std::int64_t> dargs;
  std::vector<std::int64_t> psizes;
};

std::int64_t ranks_of(const Grid& g) {
  std::int64_t n = 1;
  for (auto p : g.psizes) n *= p;
  return n;
}

/// Brute force: grid coordinate owning global index `idx` in dim `d`.
std::int64_t owner_coord(const Grid& g, std::size_t d, std::int64_t idx) {
  const std::int64_t p = g.psizes[d];
  switch (g.distribs[d]) {
    case Distribution::kNone:
      return 0;
    case Distribution::kBlock: {
      std::int64_t b = g.dargs[d];
      if (b == kDefaultDarg) b = (g.gsizes[d] + p - 1) / p;
      return idx / b;
    }
    case Distribution::kCyclic: {
      const std::int64_t b = g.dargs[d] == kDefaultDarg ? 1 : g.dargs[d];
      return (idx / b) % p;
    }
  }
  return 0;
}

/// Byte offsets (ascending) of the elements rank `r` owns, assuming a
/// row-major element size of `elem` bytes.
std::vector<Region> brute_force_regions(const Grid& g, std::int64_t rank,
                                        std::int64_t elem) {
  const std::size_t ndims = g.gsizes.size();
  std::vector<std::int64_t> coords(ndims);
  std::int64_t rem = rank;
  for (std::size_t d = ndims; d-- > 0;) {
    coords[d] = rem % g.psizes[d];
    rem /= g.psizes[d];
  }
  std::int64_t total = 1;
  for (auto n : g.gsizes) total *= n;

  std::vector<Region> out;
  for (std::int64_t flat = 0; flat < total; ++flat) {
    std::int64_t x = flat;
    bool mine = true;
    for (std::size_t d = ndims; d-- > 0;) {
      const std::int64_t idx = x % g.gsizes[d];
      x /= g.gsizes[d];
      if (owner_coord(g, d, idx) != coords[d]) {
        mine = false;
        break;
      }
    }
    if (mine) out.push_back(Region{flat * elem, static_cast<std::uint64_t>(elem)});
  }
  merge_adjacent(out);
  return out;
}

void check_grid(const Grid& g) {
  std::uint64_t total_elems = 0;
  for (std::int64_t r = 0; r < ranks_of(g); ++r) {
    auto t = darray(r, g.gsizes, g.distribs, g.dargs, g.psizes,
                    Datatype::int32());
    EXPECT_EQ(t->flatten(), brute_force_regions(g, r, 4)) << "rank " << r;
    total_elems += t->size() / 4;
    // The extent spans the full global array for every rank.
    std::int64_t full = 4;
    for (auto n : g.gsizes) full *= n;
    EXPECT_EQ(t->extent(), full);
  }
  std::int64_t total = 1;
  for (auto n : g.gsizes) total *= n;
  EXPECT_EQ(total_elems, static_cast<std::uint64_t>(total))
      << "ranks must partition the array exactly";
}

TEST(Darray, BlockDistribution1D) {
  check_grid(Grid{{16}, {Distribution::kBlock}, {kDefaultDarg}, {4}});
}

TEST(Darray, BlockNonDividing) {
  // 10 elements over 4 procs: blocks 3,3,3,1.
  check_grid(Grid{{10}, {Distribution::kBlock}, {kDefaultDarg}, {4}});
}

TEST(Darray, CyclicDistribution1D) {
  check_grid(Grid{{16}, {Distribution::kCyclic}, {kDefaultDarg}, {4}});
}

TEST(Darray, CyclicWithBlockSize) {
  check_grid(Grid{{20}, {Distribution::kCyclic}, {3}, {2}});
}

TEST(Darray, BlockBlock2D) {
  check_grid(Grid{{8, 8},
                  {Distribution::kBlock, Distribution::kBlock},
                  {kDefaultDarg, kDefaultDarg},
                  {2, 2}});
}

TEST(Darray, BlockCyclicMix2D) {
  check_grid(Grid{{8, 12},
                  {Distribution::kBlock, Distribution::kCyclic},
                  {kDefaultDarg, 2},
                  {2, 3}});
}

TEST(Darray, NoneDimension) {
  check_grid(Grid{{4, 6},
                  {Distribution::kNone, Distribution::kBlock},
                  {kDefaultDarg, kDefaultDarg},
                  {1, 3}});
}

TEST(Darray, ThreeDimensionalScaLapackStyle) {
  check_grid(Grid{{6, 8, 4},
                  {Distribution::kCyclic, Distribution::kCyclic,
                   Distribution::kNone},
                  {2, 2, kDefaultDarg},
                  {3, 2, 1}});
}

TEST(Darray, FortranOrderMatchesTransposedC) {
  const Grid g{{6, 4},
               {Distribution::kBlock, Distribution::kCyclic},
               {kDefaultDarg, 1},
               {2, 2}};
  // Fortran order with reversed dims equals C order.
  const std::vector<std::int64_t> rg{4, 6};
  const std::vector<Distribution> rd{Distribution::kCyclic,
                                     Distribution::kBlock};
  const std::vector<std::int64_t> ra{1, kDefaultDarg};
  const std::vector<std::int64_t> rp{2, 2};
  for (std::int64_t r = 0; r < 4; ++r) {
    // Note: rank->coords mapping is row-major over psizes in both
    // cases, so compare rank (r0, r1) against (r1, r0).
    const std::int64_t c0 = r / 2, c1 = r % 2;
    auto ct = darray(r, g.gsizes, g.distribs, g.dargs, g.psizes,
                     Datatype::int32());
    auto ft = darray(c1 * 2 + c0, rg, rd, ra, rp, Datatype::int32(),
                     /*c_order=*/false);
    EXPECT_EQ(ct->flatten(), ft->flatten()) << "rank " << r;
  }
}

TEST(Darray, OffloadsEndToEnd) {
  // A block-cyclic piece unpacks correctly through the NIC model.
  const Grid g{{64, 64},
               {Distribution::kCyclic, Distribution::kCyclic},
               {4, 8},
               {2, 2}};
  auto t = darray(1, g.gsizes, g.distribs, g.dargs, g.psizes,
                  Datatype::float64());
  for (auto kind : {offload::StrategyKind::kRwCp,
                    offload::StrategyKind::kSpecialized}) {
    offload::ReceiveConfig cfg;
    cfg.type = t;
    cfg.strategy = kind;
    EXPECT_TRUE(offload::run_receive(cfg).result.verified)
        << offload::strategy_name(kind);
  }
}

TEST(Darray, BadCallerInputIsAViolation) {
  using sim::check::Violation;
  const std::vector<std::int64_t> g{8}, p{2}, darg{kDefaultDarg};
  const std::vector<Distribution> block{Distribution::kBlock};
  const auto i32 = Datatype::int32();
  EXPECT_THROW(darray(2, g, block, darg, p, i32), Violation);  // rank
  EXPECT_THROW(darray(0, g, block, darg, p, nullptr), Violation);
  EXPECT_THROW(darray(0, g, std::vector<Distribution>{}, darg, p, i32),
               Violation);
  EXPECT_THROW(darray(0, g, std::vector<Distribution>{Distribution::kNone},
                      darg, p, i32),
               Violation);
  EXPECT_THROW(darray(0, g, block, std::vector<std::int64_t>{3}, p, i32),
               Violation);  // 3 x 2 cannot cover 8
  EXPECT_THROW(darray(0, g, std::vector<Distribution>{Distribution::kCyclic},
                      std::vector<std::int64_t>{0}, p, i32),
               Violation);
}

}  // namespace
}  // namespace netddt::ddt
