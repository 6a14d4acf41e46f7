#include "fabric/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "ddt/datatype.hpp"
#include "offload/driver.hpp"
#include "sim/check.hpp"
#include "sim/stats.hpp"
#include "spin/compute.hpp"

namespace netddt::fabric {

namespace {

/// Receive-side block length / stride of the byte-moving landing type:
/// each peer's packed block scatters into a strided slot, so the NIC
/// really exercises the DDT-unpack path (256-byte rows every 320 bytes).
constexpr std::uint64_t kRowBytes = 256;
constexpr std::uint64_t kRowStride = 320;

std::uint64_t align64(std::uint64_t v) { return (v + 63) & ~std::uint64_t{63}; }

struct Collective {
  const CollectiveConfig& cfg;
  std::uint32_t P;
  std::uint64_t block;
  bool reduce;  // streaming-reduction landing (offloaded reduce-scatter)
  // Byte-moving landing: the receive type and its per-message slot (the
  // offload=false packed baseline uses the slot only).
  ddt::TypePtr type;
  std::uint64_t slot_stride = 0;
  // Streaming-reduction landing. Expected contents of every (destination,
  // round) window: the init fill, with each contribution folded in as it
  // is built; a window any failed put touched is not checked.
  spin::ComputeConfig cc;
  std::vector<std::byte> expected;
  std::vector<bool> dirty;
  offload::MessageDriver driver;
  std::vector<const offload::Plan*> plans;  // per node; null = packed

  std::vector<sim::ArrivalFeed> sender_feeds;  // per sender, one per round
  std::vector<sim::Time> round_first_offer;  // per round
  std::vector<sim::Time> round_last_done;    // per round, -1 = none
  sim::Time first_offer = -1, last_done = -1;
  CollectiveRun run;

  explicit Collective(const CollectiveConfig& config)
      : cfg(config),
        P(config.fabric.topology.nodes),
        block(config.block_bytes),
        reduce(config.kind == CollectiveKind::kReduceScatter &&
               config.offload),
        driver(build_world()) {}

  /// Checks the config, sets up the landing and sizes host memory.
  offload::World build_world() {
    NETDDT_CHECK(P >= 2, "collective needs at least two nodes");
    NETDDT_CHECK(cfg.rounds >= 1, "collective needs at least one round");
    NETDDT_CHECK(block > 0, "block_bytes must be positive");
    std::uint64_t host_bytes;
    if (reduce) {
      NETDDT_CHECK(cfg.fabric.cost.pkt_payload % spin::elem_size(cfg.elem) == 0,
                   "packet payload must be element-aligned for reduce");
      cc.family = spin::HandlerFamily::kReduce;
      cc.op = cfg.op;
      cc.elem = cfg.elem;
      host_bytes = static_cast<std::uint64_t>(cfg.rounds) * block;
      if (cfg.verify) {
        expected.resize(static_cast<std::uint64_t>(P) * cfg.rounds * block);
      }
      dirty.assign(static_cast<std::uint64_t>(P) * cfg.rounds, false);
    } else {
      if (cfg.offload) {
        NETDDT_CHECK(block % kRowBytes == 0,
                     "block_bytes must be a multiple of 256");
        type = ddt::Datatype::hvector(
            static_cast<std::int64_t>(block / kRowBytes), kRowBytes,
            kRowStride, ddt::Datatype::int8());
      }
      // Host baseline: every contribution lands packed in its own slot
      // (the CPU-side unpack/combine is the analytic term the benches
      // add on top, as in fig13's host rows).
      slot_stride = align64(
          cfg.offload ? static_cast<std::uint64_t>(type->extent()) : block);
      host_bytes = static_cast<std::uint64_t>(cfg.rounds) * P * slot_stride;
    }
    return {.fabric = cfg.fabric,
            .nic = cfg.nic,
            .host_bytes = std::vector<std::uint64_t>(P, host_bytes),
            .faults = cfg.faults,
            .retransmit = cfg.retransmit};
  }

  std::uint64_t msg_id(std::uint32_t r, std::uint32_t s,
                       std::uint32_t d) const {
    return (static_cast<std::uint64_t>(r) * P + s) * P + d + 1;
  }

  std::uint64_t payload_seed(std::uint32_t r, std::uint32_t s,
                             std::uint32_t d) const {
    // Allgather broadcasts one block per (round, source); the other
    // kinds send distinct per-destination blocks.
    const std::uint64_t key =
        cfg.kind == CollectiveKind::kAllgather
            ? static_cast<std::uint64_t>(r) * P + s
            : msg_id(r, s, d);
    return cfg.seed ^ (key * 0x9E3779B97F4A7C15ull);
  }

  std::uint64_t window_seed(std::uint32_t d, std::uint32_t r) const {
    return cfg.seed ^
           ((static_cast<std::uint64_t>(d) * cfg.rounds + r + 1) *
            0xD1B54A32D192ED03ull);
  }

  std::byte* expected_window(std::uint32_t d, std::uint32_t r) {
    return expected.data() +
           (static_cast<std::uint64_t>(d) * cfg.rounds + r) * block;
  }

  /// Where (round r, source s)'s message lands on node d: one slot per
  /// message for the byte movers (a misrouted write shows up as missing
  /// bytes in the intended slot), one window per round for the
  /// reduction, whose P-1 contributions verify together at the end.
  offload::Landing landing(std::uint32_t d, std::uint32_t r,
                           std::uint32_t s) const {
    offload::Landing to{.node = d,
                        .bits = (static_cast<std::uint64_t>(r) << 32) | s,
                        .plan = plans[d],
                        .verify = cfg.verify && !reduce,
                        .type = type};
    if (reduce) {
      to.window = {.base = static_cast<std::int64_t>(r * block),
                   .bytes = block};
    } else {
      to.window = {.base = static_cast<std::int64_t>(
                       (static_cast<std::uint64_t>(r) * P + s) * slot_stride),
                   .bytes = slot_stride};
      to.check = cfg.offload ? offload::Landing::Check::kSlot
                             : offload::Landing::Check::kPacked;
    }
    return to;
  }

  /// One plan per node, one context per match entry.
  void post_receives() {
    offload::ReceiveConfig spec{
        .type = reduce ? ddt::Datatype::int8() : type,  // kReduce: bytes only
        .count = reduce ? block : 1,
        .strategy = offload::StrategyKind::kSpecialized,
        .pack_engine = cfg.pack_engine,
        .compute = reduce ? std::optional(cc) : std::nullopt};
    for (std::uint32_t d = 0; d < P; ++d) {
      plans.push_back(reduce || cfg.offload ? &driver.install(d, spec)
                                            : nullptr);
      // Pre-load each round's window with the deterministic existing
      // contents the P-1 contributions combine into.
      for (std::uint32_t r = 0; reduce && r < cfg.rounds; ++r) {
        plans[d]->compute->init_fill(
            driver.host(d).memory().data() +
                static_cast<std::uint64_t>(r) * block,
            0, window_seed(d, r));
        if (cfg.verify) {
          plans[d]->compute->init_fill(expected_window(d, r), 0,
                                       window_seed(d, r));
        }
      }
      for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
        for (std::uint32_t s = 0; s < P; ++s) {
          if (s != d) driver.post(landing(d, r, s));
        }
      }
    }
  }

  /// Every sender's round schedule, its tickets drawn in sender order;
  /// offers enter the engine one per sender (sim::ArrivalFeed).
  void schedule_offers() {
    round_first_offer.assign(cfg.rounds, sim::Time{-1});
    round_last_done.assign(cfg.rounds, sim::Time{-1});
    sender_feeds.reserve(P);
    for (std::uint32_t s = 0; s < P; ++s) {
      sender_feeds.emplace_back(cfg.arrivals, /*stream=*/s + 1,
                                driver.engine(), cfg.rounds);
    }
    for (std::uint32_t s = 0; s < P; ++s) {
      sender_feeds[s].start([this, s](std::uint64_t r, sim::Time t) {
        offer_round(s, static_cast<std::uint32_t>(r), t);
      });
    }
  }

  void offer_round(std::uint32_t s, std::uint32_t r, sim::Time t) {
    if (round_first_offer[r] < 0 || t < round_first_offer[r]) {
      round_first_offer[r] = t;
    }
    if (first_offer < 0 || t < first_offer) first_offer = t;
    for (std::uint32_t step = 0; step + 1 < P; ++step) {
      const std::uint32_t d = (s + 1 + step) % P;
      const auto payload = driver.offer(
          {.id = msg_id(r, s, d), .src = s, .to = landing(d, r, s),
           .seed = payload_seed(r, s, d)},
          block, reduce ? &cc : nullptr);
      if (reduce && cfg.verify) {
        spin::apply_reduce(expected_window(d, r), payload.data(), block,
                           cfg.op, cfg.elem);
      }
    }
  }

  /// Reduce-scatter: one window per (destination, round), skipped when a
  /// failed put may have partially written it.
  void verify_windows() {
    for (std::uint32_t d = 0; d < P; ++d) {
      for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
        if (dirty[static_cast<std::uint64_t>(d) * cfg.rounds + r]) {
          ++run.skipped_windows;
          continue;
        }
        const std::byte* got = driver.host(d).memory().data() +
                               static_cast<std::uint64_t>(r) * block;
        if (std::memcmp(got, expected_window(d, r), block) == 0) {
          ++run.verified_windows;
        } else {
          ++run.mismatched_windows;
        }
      }
    }
  }

  CollectiveRun execute() {
    post_receives();
    schedule_offers();
    driver.on_finish = [this](const offload::Message& m, sim::Time when) {
      const auto r = static_cast<std::uint32_t>((m.id - 1) / P / P);
      if (m.failed) {
        if (reduce) dirty[std::uint64_t{m.to.node} * cfg.rounds + r] = true;
        return;
      }
      run.bytes_moved += block;
      run.completion_us.push_back(static_cast<double>(when - m.arrival) / 1e6);
      round_last_done[r] = std::max(round_last_done[r], when);
      last_done = std::max(last_done, when);
    };
    run.messages = static_cast<std::uint64_t>(cfg.rounds) * P * (P - 1);
    driver.drain(run.messages);

    run.completed = driver.completed();
    run.failed = driver.failed();
    if (last_done >= 0) {
      run.makespan = last_done - first_offer;
      if (run.makespan > 0) {
        run.goodput_gbps = static_cast<double>(run.bytes_moved) * 8.0 *
                           1000.0 / static_cast<double>(run.makespan);
      }
    }
    const std::vector<double>& cs = run.completion_us;  // const overload
    run.p50_us = sim::percentile(cs, 50.0);
    run.p99_us = sim::percentile(cs, 99.0);
    run.p999_us = sim::percentile(cs, 99.9);
    run.round_us.reserve(cfg.rounds);
    for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
      run.round_us.push_back(
          round_last_done[r] < 0
              ? 0.0
              : static_cast<double>(round_last_done[r] -
                                    round_first_offer[r]) /
                    1e6);
    }
    if (reduce && cfg.verify) verify_windows();
    run.verified_windows += driver.verified();
    run.mismatched_windows += driver.mismatched();
    run.skipped_windows += driver.skipped();
    run.peak_live_payload_bytes = driver.peak_payload_bytes();
    run.fabric_metrics = driver.fabric().metrics().snapshot();
    return std::move(run);
  }
};

}  // namespace

CollectiveRun run_collective(const CollectiveConfig& config) {
  Collective collective(config);
  return collective.execute();
}

}  // namespace netddt::fabric
