// Tests for the FFT2D strong-scaling model (Fig 19): runtimes must fall
// with node count, the offloaded version must win, and the speedup must
// shrink at scale as fixed per-message costs dominate.

#include <gtest/gtest.h>

#include "goal/fft2d.hpp"
#include "sim/check.hpp"

namespace netddt::goal {
namespace {

TEST(Fft2d, ComponentsArePositive) {
  Fft2dConfig cfg;
  cfg.n = 4096;
  cfg.nodes = 64;
  const auto r = run_fft2d(cfg);
  EXPECT_GT(r.compute, 0);
  EXPECT_GT(r.communicate, 0);
  EXPECT_GT(r.unpack, 0);
  EXPECT_EQ(r.total, r.compute + r.communicate + r.unpack);
}

TEST(Fft2d, IndivisibleMatrixIsRejected) {
  Fft2dConfig cfg;
  cfg.n = 4096;
  cfg.nodes = 96;  // 4096 rows do not split evenly over 96 nodes
  EXPECT_THROW(run_fft2d(cfg), sim::check::Violation);
  EXPECT_THROW(run_fft2d_trace(cfg), sim::check::Violation);
  cfg.nodes = 0;
  EXPECT_THROW(run_fft2d(cfg), sim::check::Violation);
}

TEST(Fft2d, StrongScalingReducesRuntime) {
  const auto pts = fft2d_scaling(20480, {64, 128, 256, 512, 1024});
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i].host.total, pts[i - 1].host.total)
        << pts[i].nodes << " nodes";
    EXPECT_LT(pts[i].offloaded.total, pts[i - 1].offloaded.total);
  }
}

TEST(Fft2d, OffloadAlwaysWins) {
  const auto pts = fft2d_scaling(20480, {64, 256, 1024});
  for (const auto& p : pts) {
    EXPECT_GT(p.speedup_percent, 0.0) << p.nodes;
    EXPECT_LT(p.offloaded.unpack, p.host.unpack) << p.nodes;
  }
}

TEST(Fft2d, SpeedupInPaperBallparkAt64Nodes) {
  // Paper: up to ~26 % over host-based unpack at 64 nodes.
  const auto pts = fft2d_scaling(20480, {64});
  EXPECT_GT(pts[0].speedup_percent, 15.0);
  EXPECT_LT(pts[0].speedup_percent, 40.0);
}

TEST(Fft2d, SpeedupShrinksAtScale) {
  // Paper: "Increasing the number of nodes, the unpack overhead
  // shrinks, reducing the effects of optimizing it."
  const auto pts = fft2d_scaling(20480, {64, 1024});
  EXPECT_GT(pts[0].speedup_percent, pts[1].speedup_percent);
}

TEST(Fft2d, ComputeShareNearPaperSplit) {
  // Paper: at P = 64 the runtime is ~60 % computation, ~40 %
  // communication (incl. unpack).
  Fft2dConfig cfg;
  cfg.n = 20480;
  cfg.nodes = 64;
  const auto r = run_fft2d(cfg);
  const double compute_share = static_cast<double>(r.compute) /
                               static_cast<double>(r.total);
  EXPECT_GT(compute_share, 0.45);
  EXPECT_LT(compute_share, 0.75);
}

}  // namespace
}  // namespace netddt::goal
