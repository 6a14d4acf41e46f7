// Tests for the LogGP trace simulator: single-message timing, gap
// pipelining, dependency ordering, matching semantics, and agreement
// between the trace-driven and closed-form FFT2D models.

#include <gtest/gtest.h>

#include <string>

#include "goal/fft2d.hpp"
#include "goal/loggp.hpp"
#include "sim/check.hpp"

namespace netddt::goal {
namespace {

LogGP fast_params() {
  LogGP p;
  p.L = sim::us(1);
  p.o = sim::from_ns(100);
  p.g = sim::from_ns(200);
  p.G_gbps = 100.0;
  return p;
}

TEST(LogGp, SingleMessageLatency) {
  const LogGP p = fast_params();
  std::vector<Schedule> ranks(2);
  ranks[0].send(1000, 1, 7);
  ranks[1].recv(1000, 0, 7);
  const auto run = run_loggp(ranks, p);
  // Receiver finishes at o + L + bytes/G + o.
  const sim::Time expect =
      p.o + p.L + sim::transfer_time(1000, p.G_gbps) + p.o;
  EXPECT_EQ(run.makespan, expect);
  EXPECT_EQ(run.messages, 1u);
}

TEST(LogGp, CalcDelaysDependents) {
  std::vector<Schedule> ranks(1);
  const auto a = ranks[0].calc(sim::us(10));
  const auto b = ranks[0].calc(sim::us(5), {a});
  (void)b;
  const auto run = run_loggp(ranks, fast_params());
  EXPECT_EQ(run.makespan, sim::us(15));
}

TEST(LogGp, DependencyOnALaterOpIsAViolation) {
  std::vector<Schedule> ranks(2);
  ranks[0].calc(sim::us(1));
  ranks[1].calc(sim::us(1));
  ranks[1].calc(sim::us(1), {5});  // op 5 does not exist yet
  try {
    run_loggp(ranks, fast_params());
    FAIL() << "a dependency on a later op was accepted";
  } catch (const sim::check::Violation& v) {
    EXPECT_NE(std::string(v.what()).find("rank 1 op 1 depends on op 5"),
              std::string::npos)
        << v.what();
  }
}

TEST(LogGp, UnmatchedReceiveIsADeadlockViolation) {
  std::vector<Schedule> ranks(2);
  ranks[0].send(100, 1, 7);
  ranks[1].recv(100, 0, 7);
  ranks[1].recv(100, 0, 8);  // no send carries tag 8
  ranks[1].calc(sim::us(1), {1});
  try {
    run_loggp(ranks, fast_params());
    FAIL() << "a deadlocked schedule returned";
  } catch (const sim::check::Violation& v) {
    EXPECT_NE(std::string(v.what()).find(
                  "deadlock: rank 1 completed 1 of 3 ops"),
              std::string::npos)
        << v.what();
  }
}

TEST(LogGp, PeerOutsideTheRanksIsAViolation) {
  std::vector<Schedule> ranks(2);
  ranks[0].send(100, 2, 7);  // ranks are 0 and 1
  try {
    run_loggp(ranks, fast_params());
    FAIL() << "a send to a missing rank was accepted";
  } catch (const sim::check::Violation& v) {
    EXPECT_NE(std::string(v.what()).find("rank 0 op 0 names peer 2 of 2"),
              std::string::npos)
        << v.what();
  }
}

TEST(LogGp, IndependentCalcsSerializeOnCpu) {
  std::vector<Schedule> ranks(1);
  ranks[0].calc(sim::us(10));
  ranks[0].calc(sim::us(10));
  const auto run = run_loggp(ranks, fast_params());
  EXPECT_EQ(run.makespan, sim::us(20));
}

TEST(LogGp, ConsecutiveSendsPaceAtGap) {
  const LogGP p = fast_params();
  std::vector<Schedule> ranks(2);
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    ranks[0].send(1, 1, static_cast<std::uint32_t>(i));
    ranks[1].recv(1, 0, static_cast<std::uint32_t>(i));
  }
  const auto run = run_loggp(ranks, p);
  // The NIC paces sends: message i departs no earlier than i*(o+g+G).
  const sim::Time pace = p.o + p.g + sim::transfer_time(1, p.G_gbps);
  EXPECT_GE(run.makespan, (n - 1) * pace + p.o + p.L);
}

TEST(LogGp, RecvBeforeSendWaits) {
  const LogGP p = fast_params();
  std::vector<Schedule> ranks(2);
  ranks[0].recv(100, 1, 3);
  const auto c = ranks[1].calc(sim::us(50));
  ranks[1].send(100, 0, 3, {c});
  const auto run = run_loggp(ranks, p);
  EXPECT_GT(run.makespan, sim::us(50));
  EXPECT_EQ(run.rank_finish[0], run.makespan);
}

TEST(LogGp, WaitingRecvDoesNotBlockCpu) {
  const LogGP p = fast_params();
  std::vector<Schedule> ranks(2);
  // Rank 0 posts a recv that waits, then a long calc: the calc must
  // proceed while the recv waits off-CPU.
  ranks[0].recv(100, 1, 1);
  ranks[0].calc(sim::us(30));
  const auto c = ranks[1].calc(sim::us(10));
  ranks[1].send(100, 0, 1, {c});
  const auto run = run_loggp(ranks, p);
  // Makespan ~ max(calc 30us, message path ~11us), not their sum.
  EXPECT_LT(run.makespan, sim::us(35));
}

TEST(LogGp, FifoMatchingPerSourceAndTag) {
  const LogGP p = fast_params();
  std::vector<Schedule> ranks(2);
  ranks[0].send(10, 1, 5);
  ranks[0].send(10, 1, 5);
  ranks[1].recv(10, 0, 5);
  ranks[1].recv(10, 0, 5);
  const auto run = run_loggp(ranks, p);
  EXPECT_EQ(run.messages, 2u);
  EXPECT_GT(run.makespan, 0);
}

TEST(LogGp, RingExchangeScales) {
  const LogGP p = fast_params();
  const std::uint32_t n = 16;
  std::vector<Schedule> ranks(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    ranks[r].send(4096, (r + 1) % n, 0);
    ranks[r].recv(4096, (r + n - 1) % n, 0);
  }
  const auto run = run_loggp(ranks, p);
  EXPECT_EQ(run.messages, n);
  // A ring is one hop: everyone finishes ~ one message time.
  EXPECT_LT(run.makespan, sim::us(5));
}

TEST(LogGp, TraceFft2dAgreesWithClosedForm) {
  Fft2dConfig cfg;
  cfg.n = 8192;
  cfg.nodes = 64;
  for (auto kind : {offload::StrategyKind::kHostUnpack,
                    offload::StrategyKind::kRwCp}) {
    cfg.unpack = kind;
    const auto closed = run_fft2d(cfg);
    const auto trace = run_fft2d_trace(cfg);
    // The closed form is a linear approximation of the trace; they
    // must agree within ~35%.
    const double ratio = static_cast<double>(trace.total) /
                         static_cast<double>(closed.total);
    EXPECT_GT(ratio, 0.65) << offload::strategy_name(kind);
    EXPECT_LT(ratio, 1.35) << offload::strategy_name(kind);
  }
}

TEST(LogGp, TraceFft2dOffloadWins) {
  Fft2dConfig cfg;
  cfg.n = 8192;
  cfg.nodes = 32;
  cfg.unpack = offload::StrategyKind::kHostUnpack;
  const auto host = run_fft2d_trace(cfg);
  cfg.unpack = offload::StrategyKind::kRwCp;
  const auto off = run_fft2d_trace(cfg);
  EXPECT_LT(off.total, host.total);
}

}  // namespace
}  // namespace netddt::goal
