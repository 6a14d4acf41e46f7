#include "fabric/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "ddt/datatype.hpp"
#include "ddt/pack.hpp"
#include "offload/compute_plan.hpp"
#include "offload/runner.hpp"
#include "offload/specialized.hpp"
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

ddt::TypePtr elem_type(spin::ElemType e) {
  switch (e) {
    case spin::ElemType::kInt8: return ddt::Datatype::int8();
    case spin::ElemType::kInt32: return ddt::Datatype::int32();
    case spin::ElemType::kInt64: return ddt::Datatype::int64();
    case spin::ElemType::kFloat32: return ddt::Datatype::float32();
    case spin::ElemType::kFloat64: return ddt::Datatype::float64();
  }
  return ddt::Datatype::int32();
}

/// One offered message: (round r, source s, destination d). Its payload
/// exists from the offer instant to the message's release (see
/// Driver::release), not for the whole run; it is empty outside that.
struct Msg {
  std::vector<std::byte> payload;
  /// Lossless only: the fabric forwards these headers hop by hop (a
  /// reliable put keeps its own copy).
  std::vector<p4::Packet> packets;
  bool done = false;
  bool failed = false;
};

struct Driver {
  const CollectiveConfig& cfg;
  std::uint32_t P;
  std::uint64_t block;
  bool lossy;
  bool reduce;  // streaming-reduction landing (offloaded reduce-scatter)
  // No copy can read a payload once its message is done: lossless
  // routes deliver every copy before the completion, and the RMW landing
  // drops duplicates unread. Otherwise payloads wait for the run's end.
  bool release_at_done;

  sim::Engine engine;
  Fabric fabric;
  std::vector<std::unique_ptr<spin::Host>> hosts;
  std::vector<std::unique_ptr<spin::NicModel>> nics;

  // Byte-moving landing (and the offload=false packed baseline).
  ddt::TypePtr type;
  std::uint64_t extent = 0;
  std::uint64_t slot_stride = 0;
  std::vector<std::unique_ptr<offload::SpecializedPlan>> plans;
  std::vector<std::byte> ref;  // one slot's expected contents

  // Streaming-reduction landing.
  spin::ComputeConfig cc;
  std::vector<std::unique_ptr<offload::ComputePlan>> cplans;
  // Expected contents of every (destination, round) window: the init
  // fill, with each contribution folded in as it is built.
  std::vector<std::byte> expected;

  std::vector<Msg> msgs;
  std::uint64_t live_payload_bytes = 0;
  std::vector<sim::Time> offers;             // (s, r) -> offer instant
  std::vector<sim::Time> round_first_offer;  // per round
  std::vector<sim::Time> round_last_done;    // per round, -1 = none
  sim::Time first_offer = 0, last_done = -1;
  CollectiveRun run;

  explicit Driver(const CollectiveConfig& config)
      : cfg(config),
        P(config.fabric.topology.nodes),
        block(config.block_bytes),
        lossy(config.faults.active()),
        reduce(config.kind == CollectiveKind::kReduceScatter &&
               config.offload),
        release_at_done(!lossy || reduce),
        fabric(engine, config.fabric) {}

  std::uint64_t msg_index(std::uint32_t r, std::uint32_t s,
                          std::uint32_t d) const {
    const std::uint32_t step = (d + P - s - 1) % P;
    return (static_cast<std::uint64_t>(r) * P + s) * (P - 1) + step;
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

  void build_nodes() {
    const std::uint64_t elem = spin::elem_size(cfg.elem);
    std::uint64_t host_bytes;
    if (reduce) {
      NETDDT_CHECK(block % elem == 0,
                   "reduce-scatter block must be element-aligned");
      NETDDT_CHECK(cfg.fabric.cost.pkt_payload % elem == 0,
                   "packet payload must be element-aligned for reduce");
      cc.family = spin::HandlerFamily::kReduce;
      cc.op = cfg.op;
      cc.elem = cfg.elem;
      host_bytes = static_cast<std::uint64_t>(cfg.rounds) * block;
      if (cfg.verify) {
        expected.resize(static_cast<std::uint64_t>(P) * cfg.rounds * block);
      }
    } else if (cfg.offload) {
      NETDDT_CHECK(block % kRowBytes == 0,
                   "block_bytes must be a multiple of 256");
      const std::uint64_t rows = block / kRowBytes;
      type = ddt::Datatype::hvector(static_cast<std::int64_t>(rows),
                                    kRowBytes, kRowStride,
                                    ddt::Datatype::int8());
      extent = static_cast<std::uint64_t>(type->extent());
      slot_stride = align64(extent);
      host_bytes =
          static_cast<std::uint64_t>(cfg.rounds) * P * slot_stride;
    } else {
      // Host baseline: every contribution lands packed in its own slot
      // (the CPU-side unpack/combine is the analytic term the benches
      // add on top, as in fig13's host rows).
      slot_stride = align64(block);
      host_bytes =
          static_cast<std::uint64_t>(cfg.rounds) * P * slot_stride;
    }
    if (!reduce) ref.resize(slot_stride);

    hosts.reserve(P);
    nics.reserve(P);
    if (reduce) cplans.reserve(P);
    if (!reduce && cfg.offload) plans.reserve(P);
    for (std::uint32_t n = 0; n < P; ++n) {
      hosts.push_back(std::make_unique<spin::Host>(host_bytes));
      nics.push_back(std::make_unique<spin::NicModel>(
          engine, *hosts.back(), cfg.fabric.cost, cfg.nic));
      spin::NicModel& nic = *nics.back();
      fabric.attach(n, nic);
      if (reduce) {
        auto et = elem_type(cfg.elem);
        const std::uint64_t count = block / elem;
        NETDDT_CHECK(offload::ComputePlan::elem_eligible(et, count, cc),
                     "reduce landing must be element-eligible");
        cplans.push_back(offload::ComputePlan::create(
            et, count, cfg.fabric.cost, cfg.pack_engine, cc,
            nic.metrics()));
        NETDDT_CHECK(cplans.back() != nullptr, "ComputePlan::create failed");
        nic.memory().alloc(cplans.back()->descriptor_bytes(),
                           "fabric.reduce_descriptor");
        // Pre-load each round's window with the deterministic existing
        // contents the P-1 contributions combine into.
        for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
          cplans.back()->init_fill(
              hosts.back()->memory().data() +
                  static_cast<std::uint64_t>(r) * block,
              0, window_seed(n, r));
          if (cfg.verify) {
            cplans.back()->init_fill(expected_window(n, r), 0,
                                     window_seed(n, r));
          }
        }
      } else if (cfg.offload) {
        plans.push_back(offload::SpecializedPlan::create(
            type, 1, cfg.fabric.cost, /*closed_form_only=*/false,
            cfg.pack_engine));
        NETDDT_CHECK(plans.back() != nullptr,
                     "SpecializedPlan::create failed");
        nic.memory().alloc(plans.back()->descriptor_bytes(),
                           "fabric.ddt_descriptor");
      }
    }
  }

  void post_receives() {
    for (std::uint32_t d = 0; d < P; ++d) {
      spin::NicModel& nic = *nics[d];
      for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
        for (std::uint32_t s = 0; s < P; ++s) {
          if (s == d) continue;
          p4::MatchEntry me;
          me.match_bits = (static_cast<std::uint64_t>(r) << 32) | s;
          if (reduce) {
            me.buffer_offset =
                static_cast<std::int64_t>(static_cast<std::uint64_t>(r) *
                                          block);
            me.length = block;
            me.context = nic.register_context(cplans[d]->context(nic));
          } else {
            me.buffer_offset = static_cast<std::int64_t>(
                (static_cast<std::uint64_t>(r) * P + s) * slot_stride);
            me.length = slot_stride;
            me.context = cfg.offload
                             ? nic.register_context(plans[d]->context(nic))
                             : nullptr;  // plain RDMA, packed landing
          }
          nic.match_list().append(p4::ListKind::kPriority, me);
        }
      }
    }
  }

  void schedule_offers() {
    offers.assign(static_cast<std::uint64_t>(P) * cfg.rounds, 0);
    round_first_offer.assign(cfg.rounds, sim::Time{-1});
    round_last_done.assign(cfg.rounds, sim::Time{-1});
    first_offer = -1;
    for (std::uint32_t s = 0; s < P; ++s) {
      sim::ArrivalProcess ap(cfg.arrivals, /*stream=*/s + 1);
      for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
        const sim::Time t = ap.next();
        offers[static_cast<std::uint64_t>(s) * cfg.rounds + r] = t;
        if (round_first_offer[r] < 0 || t < round_first_offer[r]) {
          round_first_offer[r] = t;
        }
        if (first_offer < 0 || t < first_offer) first_offer = t;
        engine.schedule_at(t, [this, s, r] { offer_round(s, r); });
      }
    }
  }

  void offer_round(std::uint32_t s, std::uint32_t r) {
    const sim::Time now = engine.now();
    const std::uint64_t match_bits = (static_cast<std::uint64_t>(r) << 32) | s;
    for (std::uint32_t step = 0; step + 1 < P; ++step) {
      const std::uint32_t d = (s + 1 + step) % P;
      const std::uint64_t idx = msg_index(r, s, d);
      const std::uint64_t id = msg_id(r, s, d);
      Msg& m = msgs[idx];
      if (reduce) {
        m.payload.resize(block);
        spin::fill_typed(m.payload.data(), block, cfg.elem,
                         payload_seed(r, s, d));
        if (cfg.verify) {
          spin::apply_reduce(expected_window(d, r), m.payload.data(), block,
                             cfg.op, cfg.elem);
        }
      } else {
        m.payload =
            offload::packed_message_pattern(block, payload_seed(r, s, d));
      }
      live_payload_bytes += block;
      run.peak_live_payload_bytes =
          std::max(run.peak_live_payload_bytes, live_payload_bytes);
      std::vector<p4::Packet> packets = p4::packetize(
          id, match_bits, m.payload, cfg.fabric.cost.pkt_payload);
      if (!lossy) {
        m.packets = std::move(packets);
        fabric.send(s, d, m.packets, now);
        continue;
      }
      fabric.send_reliable(
          s, d, std::move(packets), now,
          sim::faults::FaultPlan(cfg.faults, id), cfg.retransmit,
          [this, idx](sim::Time, bool ok) {
            if (ok) return;
            msgs[idx].failed = true;
            ++run.failed;
          });
    }
  }

  void on_msg_done(std::uint32_t d, std::uint64_t id, sim::Time when) {
    const std::uint64_t u = id - 1;
    NETDDT_CHECK(u % P == d, "msg completion on the wrong node");
    const std::uint32_t s = static_cast<std::uint32_t>((u / P) % P);
    const std::uint32_t r = static_cast<std::uint32_t>(u / P / P);
    Msg& m = msgs[msg_index(r, s, d)];
    m.done = true;
    ++run.completed;
    run.bytes_moved += block;
    const sim::Time offer =
        offers[static_cast<std::uint64_t>(s) * cfg.rounds + r];
    run.completion_us.push_back(static_cast<double>(when - offer) / 1e6);
    if (when > round_last_done[r]) round_last_done[r] = when;
    if (when > last_done) last_done = when;
    if (release_at_done && !m.failed) release(r, s, d);
  }

  /// No copy of message (r, s, d) can read its payload any more: verify
  /// its slot (byte-moving kinds) and free the payload.
  void release(std::uint32_t r, std::uint32_t s, std::uint32_t d) {
    Msg& m = msgs[msg_index(r, s, d)];
    if (!reduce && cfg.verify) verify_slot(m, r, s, d);
    m.packets = std::vector<p4::Packet>();
    m.payload = std::vector<std::byte>();
    live_payload_bytes -= block;
  }

  /// Byte-moving kinds (and the packed host baseline): one slot per
  /// message. A misrouted write shows up as missing bytes in the
  /// intended slot, whenever that slot is checked.
  void verify_slot(const Msg& m, std::uint32_t r, std::uint32_t s,
                   std::uint32_t d) {
    if (!m.done || m.failed) {
      ++run.skipped_windows;
      return;
    }
    const std::byte* got =
        hosts[d]->memory().data() +
        (static_cast<std::uint64_t>(r) * P + s) * slot_stride;
    bool ok;
    if (cfg.offload) {
      std::fill(ref.begin(), ref.end(), std::byte{0});
      ddt::unpack(m.payload.data(), *type, 1, ref.data());
      ok = std::memcmp(got, ref.data(), slot_stride) == 0;
    } else {
      ok = std::memcmp(got, m.payload.data(), block) == 0;
    }
    if (ok) {
      ++run.verified_windows;
    } else {
      ++run.mismatched_windows;
    }
  }

  /// Reduce-scatter: one window per (destination, round); skip windows
  /// any failed or unfinished put may have partially written.
  void verify_windows() {
    for (std::uint32_t d = 0; d < P; ++d) {
      for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
        bool clean = true;
        for (std::uint32_t s = 0; s < P && clean; ++s) {
          if (s == d) continue;
          const Msg& m = msgs[msg_index(r, s, d)];
          clean = m.done && !m.failed;
        }
        if (!clean) {
          ++run.skipped_windows;
          continue;
        }
        const std::byte* got = hosts[d]->memory().data() +
                               static_cast<std::uint64_t>(r) * block;
        if (std::memcmp(got, expected_window(d, r), block) == 0) {
          ++run.verified_windows;
        } else {
          ++run.mismatched_windows;
        }
      }
    }
  }

  /// The engine drained: release every payload still held (lossy byte
  /// movers, failed puts) and check the release rule held.
  void release_retained() {
    std::uint64_t retained = 0;
    for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
      for (std::uint32_t s = 0; s < P; ++s) {
        for (std::uint32_t step = 0; step + 1 < P; ++step) {
          const std::uint32_t d = (s + 1 + step) % P;
          if (msgs[msg_index(r, s, d)].payload.empty()) continue;
          release(r, s, d);
          ++retained;
        }
      }
    }
    NETDDT_CHECK(!release_at_done || retained == run.failed,
                 std::to_string(retained) + " payloads retained past done, " +
                     std::to_string(run.failed) + " failed puts");
  }

  CollectiveRun execute() {
    NETDDT_CHECK(P >= 2, "collective needs at least two nodes");
    NETDDT_CHECK(cfg.rounds >= 1, "collective needs at least one round");
    NETDDT_CHECK(block > 0, "block_bytes must be positive");
    build_nodes();
    post_receives();
    msgs.resize(static_cast<std::uint64_t>(cfg.rounds) * P * (P - 1));
    schedule_offers();
    for (std::uint32_t d = 0; d < P; ++d) {
      nics[d]->set_msg_done_callback(
          [this, d](std::uint64_t msg_id, sim::Time when) {
            on_msg_done(d, msg_id, when);
          });
    }
    engine.run();

    run.messages = msgs.size();
    NETDDT_CHECK(run.completed + run.failed == run.messages,
                 "every offered message must complete or fail");
    release_retained();
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
    run.fabric_metrics = fabric.metrics().snapshot();
    return std::move(run);
  }
};

}  // namespace

CollectiveRun run_collective(const CollectiveConfig& config) {
  Driver driver(config);
  return driver.execute();
}

}  // namespace netddt::fabric
