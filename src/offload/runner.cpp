#include "offload/runner.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "dataloop/cache.hpp"
#include "ddt/pack.hpp"
#include "fabric/fabric.hpp"
#include "offload/compute_plan.hpp"
#include "offload/general.hpp"
#include "offload/host_model.hpp"
#include "offload/iovec.hpp"
#include "offload/specialized.hpp"
#include "p4/put.hpp"
#include "sim/check.hpp"
#include "spin/nic.hpp"

namespace netddt::offload {

std::string_view strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kHostUnpack: return "Host";
    case StrategyKind::kSpecialized: return "Specialized";
    case StrategyKind::kHpuLocal: return "HPU-local";
    case StrategyKind::kRoCp: return "RO-CP";
    case StrategyKind::kRwCp: return "RW-CP";
    case StrategyKind::kIovec: return "Portals4-iovec";
  }
  return "?";
}

std::vector<std::byte> packed_message_pattern(std::uint64_t bytes,
                                              std::uint64_t seed) {
  // Byte i depends on i mod 256 only: build one period, then tile it.
  constexpr std::uint64_t kPeriod = 256;
  std::vector<std::byte> v(bytes);
  const std::uint64_t head = std::min(bytes, kPeriod);
  for (std::uint64_t i = 0; i < head; ++i) {
    v[i] = static_cast<std::byte>((i * 167 + seed * 13 + 5) & 0xFF);
  }
  for (std::uint64_t done = head; done < bytes;) {
    const std::uint64_t n = std::min(done, bytes - done);
    std::memcpy(v.data() + done, v.data(), n);
    done += n;
  }
  return v;
}

bool regions_hold_stream(const std::byte* base, const ddt::TypePtr& type,
                         std::uint64_t count,
                         std::span<const std::byte> packed,
                         dataloop::PackEngine engine, std::uint64_t window) {
  assert(packed.size() == type->size() * count && "stream/type mismatch");
  if (packed.empty()) return true;  // packed.data() may be null
  std::shared_ptr<const dataloop::FlatProgram> prog;
  if (engine == dataloop::PackEngine::kProgram) {
    prog = dataloop::plan_cached(type, count).program;
  }
  if (prog == nullptr) {
    const auto stream = std::make_unique_for_overwrite<std::byte[]>(
        packed.size());
    ddt::pack(base, *type, count, stream.get());
    return std::memcmp(stream.get(), packed.data(), packed.size()) == 0;
  }
  // Program engine: gather through the compiled flat program at packet
  // granularity (the same resumable windows the receive path saw).
  const std::uint64_t step = std::max<std::uint64_t>(window, 1);
  const auto stream = std::make_unique_for_overwrite<std::byte[]>(
      std::min<std::uint64_t>(step, packed.size()));
  for (std::uint64_t at = 0; at < packed.size(); at += step) {
    const std::uint64_t end = std::min<std::uint64_t>(packed.size(), at + step);
    prog->pack(base, at, end, stream.get());
    if (std::memcmp(stream.get(), packed.data() + at, end - at) != 0) {
      return false;
    }
  }
  return true;
}

ReceiveRun run_receive(const ReceiveConfig& config) {
  if (config.type == nullptr) {
    throw std::invalid_argument("ReceiveConfig.type must be set");
  }
  if (config.count == 0) {
    throw std::invalid_argument("ReceiveConfig.count must be > 0");
  }
  std::optional<sim::check::ScopedEnable> check_scope;
  if (config.validate) check_scope.emplace(true);

  // In-network compute (docs/HANDLERS.md): the destination ("logical")
  // size comes from the type as always, but with the kTransform family
  // the wire carries the quantized stream, so the message on the wire is
  // narrower than the logical bytes it reconstructs.
  const bool compute_on = config.compute.has_value();
  const spin::ComputeConfig cc =
      config.compute.value_or(spin::ComputeConfig{});
  const bool transform =
      compute_on && cc.family == spin::HandlerFamily::kTransform;
  const std::uint64_t logical_bytes =
      config.type->size() * config.count;
  const std::uint64_t msg_bytes =
      transform ? logical_bytes / spin::quant_host_elem(cc.quant) *
                      spin::quant_wire_elem(cc.quant)
                : logical_bytes;
  // Instance i occupies [i*extent + lb, i*extent + ub): with lb > 0 the
  // last instance reaches beyond count*extent, so size off the upper
  // bound. Negative lb (resized types) puts bytes below offset 0; shift
  // the whole window up so the layout stays inside the buffer — every
  // DMA target already goes through MatchEntry::buffer_offset.
  const std::int64_t lo = std::min(
      {std::int64_t{0}, config.type->lb(), config.type->true_lb()});
  const std::int64_t hi = std::max(
      {std::int64_t{0}, config.type->ub(), config.type->true_ub()});
  const std::uint64_t shift = static_cast<std::uint64_t>(-lo);
  std::uint64_t buffer_bytes =
      shift +
      static_cast<std::uint64_t>(config.type->extent()) *
          (config.count - 1) +
      static_cast<std::uint64_t>(hi) + 64;
  // kReduce/kTransform land into the contiguous window [0, logical)
  // regardless of the type's region layout; make sure it fits.
  if (compute_on) {
    buffer_bytes = std::max(buffer_bytes, shift + logical_bytes + 64);
  }
  const std::uint64_t npkt =
      p4::packet_count(msg_bytes, config.cost.pkt_payload);

  ReceiveRun run;
  run.buffer_shift = static_cast<std::int64_t>(shift);
  ReceiveResult& res = run.result;
  res.strategy = config.strategy;
  res.message_bytes = logical_bytes;
  res.wire_bytes = msg_bytes;
  res.packets = npkt;

  const auto regions = config.type->flatten(config.count);
  res.gamma = static_cast<double>(regions.size()) /
              static_cast<double>(npkt);

  // The packed message (what the sender's pack/streaming produced). For
  // compute runs the stream carries valid typed elements (fill_typed),
  // quantized by the sender for kTransform.
  std::vector<std::byte> packed;
  if (!compute_on) {
    packed = packed_message_pattern(msg_bytes, config.seed);
  } else if (transform) {
    const spin::ElemType helem =
        cc.quant == spin::QuantScheme::kF64ToF32 ? spin::ElemType::kFloat64
                                                 : spin::ElemType::kFloat32;
    std::vector<std::byte> logical(logical_bytes);
    spin::fill_typed(logical.data(), logical_bytes, helem, config.seed);
    packed.resize(msg_bytes);
    spin::quantize(packed.data(), logical.data(), logical_bytes, cc.quant);
  } else {
    packed.resize(msg_bytes);
    spin::fill_typed(packed.data(), msg_bytes, cc.elem, config.seed);
  }

  // Host-unpack baseline keeps a bounce buffer next to the receive
  // buffer: [0, buffer) receive area, [buffer, buffer+msg) bounce.
  const bool host_based = config.strategy == StrategyKind::kHostUnpack;
  const std::uint64_t host_bytes =
      host_based ? buffer_bytes + msg_bytes : buffer_bytes;

  sim::Engine engine;
  spin::Host host(host_bytes);
  spin::NicModel nic(engine, host, config.cost,
                     spin::NicConfig{config.hpus, config.nicmem_bytes});
  fabric::Fabric link(engine, fabric::point_to_point(nic.cost()));
  link.attach(1, nic);
  if (config.trace.any()) {
    run.tracer = std::make_unique<sim::trace::Tracer>(config.trace);
    engine.set_tracer(run.tracer.get());
    nic.set_tracer(run.tracer.get());  // before strategies build contexts
  }

  // Strategy setup (before the ready-to-receive goes out).
  std::unique_ptr<SpecializedPlan> specialized;
  std::unique_ptr<GeneralPlan> general;
  std::unique_ptr<IovecPlan> iovec;
  std::unique_ptr<ComputePlan> computep;
  p4::MatchEntry me;
  me.match_bits = 0x5197;
  me.buffer_offset = static_cast<std::int64_t>(shift);
  me.length = buffer_bytes;

  if (compute_on && config.strategy != StrategyKind::kHostUnpack) {
    // A compute context replaces the byte-moving strategy (the strategy
    // field still selects the kHostUnpack baseline for ablations).
    computep = ComputePlan::create(config.type, config.count, nic.cost(),
                                   config.pack_engine, cc, nic.metrics());
    assert(computep != nullptr && "compute config not element-eligible");
    res.nic_descriptor_bytes = computep->descriptor_bytes();
    nic.memory().alloc(res.nic_descriptor_bytes, "compute",
                       {.pinned = true});
    me.context = nic.register_context(computep->context(nic));
  } else
  switch (config.strategy) {
    case StrategyKind::kHostUnpack:
      me.buffer_offset = static_cast<std::int64_t>(buffer_bytes);  // bounce
      break;
    case StrategyKind::kSpecialized: {
      specialized = SpecializedPlan::create(config.type, config.count,
                                            nic.cost(),
                                            /*closed_form_only=*/false,
                                            config.pack_engine);
      res.nic_descriptor_bytes = specialized->descriptor_bytes();
      // Pinned: the state belongs to the one in-flight message, so no
      // eviction may reclaim it mid-receive.
      nic.memory().alloc(res.nic_descriptor_bytes, "specialized",
                         {.pinned = true});
      me.context = nic.register_context(specialized->context(nic));
      break;
    }
    case StrategyKind::kHpuLocal:
    case StrategyKind::kRoCp:
    case StrategyKind::kRwCp: {
      GeneralConfig gc;
      gc.kind = config.strategy;
      gc.hpus = config.hpus;
      gc.epsilon = config.epsilon;
      gc.nic_memory_budget = config.nicmem_bytes / 2;
      gc.pkt_buffer_bytes = config.pkt_buffer_bytes;
      general = std::make_unique<GeneralPlan>(config.type, config.count, gc,
                                              nic.cost());
      res.nic_descriptor_bytes = general->descriptor_bytes();
      res.host_setup_time = general->host_setup_time();
      res.checkpoint_interval = general->checkpoint_interval();
      res.checkpoints = general->checkpoints();
      nic.metrics().counter("offload.checkpoints").add(res.checkpoints);
      nic.metrics()
          .counter("offload.checkpoint.interval_bytes")
          .add(res.checkpoint_interval);
      nic.memory().alloc(res.nic_descriptor_bytes, "general",
                         {.pinned = true});
      me.context = nic.register_context(general->context(nic));
      break;
    }
    case StrategyKind::kIovec: {
      iovec = std::make_unique<IovecPlan>(config.type, config.count,
                                          nic.cost());
      res.nic_descriptor_bytes = iovec->descriptor_bytes();
      res.host_setup_time = iovec->host_setup_time();
      me.context = nic.register_context(iovec->context(nic));
      break;
    }
  }
  if (me.context != nullptr && computep == nullptr) {
    // Handler spans in traces carry the strategy name (compute contexts
    // already named themselves after their family).
    static_cast<spin::ExecutionContext*>(me.context)->label =
        strategy_name(config.strategy).data();
  }
  nic.match_list().append(p4::ListKind::kPriority, me);

  if (computep != nullptr) {
    // Reductions combine into existing buffer contents: pre-load the
    // destination with the deterministic typed pattern the references
    // also start from.
    computep->init_fill(host.memory().data(),
                        static_cast<std::int64_t>(shift), config.seed);
  }

  // Stream the message (t = 0 is the ready-to-receive instant).
  const std::uint64_t msg_id = 1;
  auto packets = p4::packetize(msg_id, me.match_bits, packed,
                               nic.cost().pkt_payload);
  if (run.tracer != nullptr && run.tracer->blame() != nullptr) {
    run.tracer->blame()->open(msg_id, 0);
  }
  const sim::faults::FaultPlan fault_plan(config.faults, msg_id);
  bool put_ok = true;
  if (fault_plan.active()) {
    link.send_reliable(0, 1, packets, 0, fault_plan, config.retransmit,
                       [&put_ok](sim::Time, bool ok) { put_ok = ok; });
  } else {
    p4::shuffle_payload(packets, config.ooo_window, config.seed);
    link.send(0, 1, packets, 0);
  }
  engine.run();

  const auto* info = nic.info(msg_id);
  if (!put_ok || info == nullptr || !info->done) {
    throw std::runtime_error(
        "msg " + std::to_string(msg_id) +
        (put_ok ? " did not complete"
                : ": reliable put failed, a packet exhausted max_retries=" +
                      std::to_string(config.retransmit.max_retries)));
  }

  if (run.tracer != nullptr && run.tracer->events_on()) {
    // One span covering the whole message (first byte -> unpack done).
    run.tracer->complete(run.tracer->track("message"), "receive",
                         info->first_byte, info->unpack_done,
                         static_cast<std::int64_t>(msg_id));
  }
  if (run.tracer != nullptr && run.tracer->blame() != nullptr) {
    // Resolve the attribution window (send start -> final DMA landing);
    // close() NETDDT_CHECKs that the stages tile it exactly.
    const auto* attribution =
        run.tracer->blame()->close(msg_id, info->unpack_done);
    if (attribution != nullptr) run.blame = *attribution;
  }

  // Program-engine shape stats: a pure function of (type, count), so
  // deterministic; registered lazily so interpreter runs keep their
  // historical metric set (and JSON) byte-identical.
  if (config.pack_engine == dataloop::PackEngine::kProgram) {
    const auto plan = dataloop::plan_cached(config.type, config.count);
    if (plan.program != nullptr) {
      const auto& st = plan.program->stats();
      nic.metrics().counter("dataloop.program.ops").add(st.ops);
      nic.metrics().counter("dataloop.program.leaf_runs").add(st.leaf_runs);
      nic.metrics()
          .counter("dataloop.program.table_entries")
          .add(st.table_entries);
      nic.metrics()
          .counter("dataloop.program.bytes_per_instance")
          .add(st.bytes);
      nic.metrics()
          .counter("dataloop.program.fused_run_ratio_ppm")
          .add(static_cast<std::uint64_t>(st.fused_run_ratio() * 1e6));
      nic.metrics()
          .counter("dataloop.program.bytes_per_op_milli")
          .add(static_cast<std::uint64_t>(st.bytes_per_op() * 1000.0));
    }
  }
  // Compute-family byte accounting (lazily registered: only compute runs
  // publish nic.compute.*, keeping historical JSON byte-identical).
  if (compute_on) {
    nic.metrics().counter("nic.compute.host_bytes").add(logical_bytes);
    nic.metrics().counter("nic.compute.wire_bytes").add(msg_bytes);
  }

  // Publish the simulator's own high-watermark, then freeze the registry:
  // everything below reads through the snapshot, not loose struct fields.
  nic.metrics().gauge("sim.engine.queue_depth").set(
      static_cast<std::int64_t>(engine.max_pending()));
  // Deterministic: a pure function of the callables scheduled. Stays 0
  // for every model (callbacks fit InlineCallback's inline storage).
  nic.metrics().counter("sim.engine.callback_heap_allocs")
      .add(engine.callback_heap_allocs());
  // Callback-size histogram, nonzero buckets only (also deterministic);
  // bench/engine_perf renders it in its model audit.
  const auto& hist = engine.callback_size_hist();
  for (std::size_t b = 0; b < sim::Engine::kSizeBuckets; ++b) {
    if (hist[b] == 0) continue;
    nic.metrics()
        .counter(std::string("sim.engine.callbacks_") +
                 sim::Engine::size_bucket_name(b))
        .add(hist[b]);
  }
  // Wall-clock derived, hence nondeterministic: the report layer diverts
  // this gauge into the perf section so deterministic output (tables,
  // --json) never depends on it.
  nic.metrics().gauge("sim.engine.events_per_sec").set(
      static_cast<std::int64_t>(engine.events_per_sec()));
  nic.metrics().finalize_series(engine.now());
  run.metrics = nic.metrics().snapshot();
  const sim::MetricsSnapshot& snap = run.metrics;

  res.msg_time = info->unpack_done - info->first_byte;
  res.e2e_time = info->unpack_done;
  res.dma_writes = snap.counter("nic.dma.writes");
  res.dma_queue_peak =
      static_cast<std::size_t>(snap.gauge_peak("nic.dma.queue_depth"));
  res.pkt_buffer_peak =
      static_cast<std::uint64_t>(snap.gauge_peak("nic.pktbuf.occupancy"));
  res.nic_memory_peak =
      static_cast<std::uint64_t>(snap.gauge_peak("nic.mem.used"));
  res.handlers = snap.counter("nic.handler.invocations");
  // Zero (and absent from the snapshot) unless the run was lossy.
  res.retransmits = snap.counter("p4.retransmits");
  res.pkts_dropped = snap.counter("p4.pkts_dropped");
  res.dup_deliveries = snap.counter("p4.dup_deliveries");
  if (res.handlers > 0) {
    res.handler_init = static_cast<sim::Time>(
        snap.counter("nic.handler.init_time_ps") / res.handlers);
    res.handler_setup = static_cast<sim::Time>(
        snap.counter("nic.handler.setup_time_ps") / res.handlers);
    res.handler_processing = static_cast<sim::Time>(
        snap.counter("nic.handler.processing_time_ps") / res.handlers);
  }
  if (config.trace.events) {
    const auto& points = nic.dma().depth_trace();
    run.dma_trace.reserve(points.size());
    for (const auto& [when, depth] : points) {
      run.dma_trace.emplace_back(when, static_cast<std::size_t>(depth));
    }
  }

  if (host_based) {
    // The CPU unpack happens after the full message landed in the
    // bounce buffer. For compute baselines the estimate additionally
    // covers the CPU-side reduction/dequantize pass (ablation_reduce).
    if (compute_on) {
      const auto est =
          host_compute_estimate(config.type, config.count, cc, config.cost);
      res.msg_time += est.time;
      res.e2e_time += est.time;
      res.host_traffic_bytes = est.traffic_bytes;
    } else {
      const auto est =
          host_unpack_estimate(*config.type, config.count, config.cost);
      res.msg_time += est.unpack_time;
      res.e2e_time += est.unpack_time;
      res.host_traffic_bytes = est.traffic_bytes;
    }
    if (config.verify) {
      // The bounce buffer must hold the packed stream; unpack it
      // functionally to mirror what the CPU would produce. (A 0-byte
      // message has no bounce data — and packed.data() may be null.)
      res.verified =
          msg_bytes == 0 ||
          std::memcmp(host.memory().data() + buffer_bytes, packed.data(),
                      msg_bytes) == 0;
    }
  } else if (computep != nullptr) {
    // Offloaded compute: the destination crosses memory once, twice for
    // RMW families (the DMA engine reads it back before combining).
    res.host_traffic_bytes = logical_bytes * (transform ? 1u : 2u);
    if (config.verify) {
      // Whole-buffer compare against the shared host reference: init
      // fill + exactly one combined contribution per element.
      std::vector<std::byte> reference(buffer_bytes, std::byte{0});
      computep->host_reference(reference.data(), run.buffer_shift,
                               packed.data(), msg_bytes, config.seed);
      res.verified = std::memcmp(host.memory().data(), reference.data(),
                                 buffer_bytes) == 0;
    }
  } else {
    // Offloaded: the only main-memory traffic is the scattered message.
    res.host_traffic_bytes = msg_bytes;
    if (config.verify) {
      res.verified = regions_hold_stream(
          host.memory().data() + shift, config.type, config.count, packed,
          config.pack_engine, nic.cost().pkt_payload);
    }
  }
  if (config.keep_buffer) {
    const std::byte* base = host.memory().data();
    run.buffer.assign(base, base + buffer_bytes);
  }
  return run;
}

}  // namespace netddt::offload
