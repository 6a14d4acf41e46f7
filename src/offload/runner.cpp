#include "offload/runner.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "dataloop/cache.hpp"
#include "ddt/pack.hpp"
#include "offload/driver.hpp"
#include "offload/host_model.hpp"
#include "sim/check.hpp"

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

void pack_stream(const std::byte* base, const ddt::TypePtr& type,
                 std::uint64_t count, dataloop::PackEngine engine,
                 std::uint64_t window, std::byte* out) {
  const std::uint64_t bytes = type->size() * count;
  if (bytes == 0) return;  // out may be null
  std::shared_ptr<const dataloop::FlatProgram> prog;
  if (engine == dataloop::PackEngine::kProgram) {
    prog = dataloop::plan_cached(type, count).program;
  }
  if (prog == nullptr) {
    ddt::pack(base, *type, count, out);
    return;
  }
  // Program engine: gather at packet granularity (the same resumable
  // windows the receive path saw).
  const std::uint64_t step = std::max<std::uint64_t>(window, 1);
  for (std::uint64_t at = 0; at < bytes; at += step) {
    prog->pack(base, at, std::min(bytes, at + step), out + at);
  }
}

bool regions_hold_stream(const std::byte* base, const ddt::TypePtr& type,
                         std::uint64_t count,
                         std::span<const std::byte> packed,
                         dataloop::PackEngine engine, std::uint64_t window) {
  NETDDT_CHECK(packed.size() == type->size() * count,
               "sent stream of " + std::to_string(packed.size()) +
                   " bytes for a type of " + std::to_string(type->size()) +
                   " bytes x " + std::to_string(count));
  if (packed.empty()) return true;  // packed.data() may be null
  const auto stream =
      std::make_unique_for_overwrite<std::byte[]>(packed.size());
  pack_stream(base, type, count, engine, window, stream.get());
  return std::memcmp(stream.get(), packed.data(), packed.size()) == 0;
}

ReceiveRun run_receive(const ReceiveConfig& config) {
  if (config.type == nullptr) {
    throw std::invalid_argument("ReceiveConfig.type must be set");
  }
  if (config.count == 0) {
    throw std::invalid_argument("ReceiveConfig.count must be > 0");
  }
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
  Window window = receive_window(*config.type, config.count);
  window.bytes += 64;
  // kReduce/kTransform land into the contiguous window [0, logical)
  // regardless of the type's region layout; make sure it fits.
  if (compute_on) {
    window.bytes = std::max(window.bytes, window.shift + logical_bytes + 64);
  }
  const std::uint64_t buffer_bytes = window.bytes;
  const std::uint64_t npkt =
      p4::packet_count(msg_bytes, config.cost.pkt_payload);

  ReceiveRun run;
  run.buffer_shift = static_cast<std::int64_t>(window.shift);
  ReceiveResult& res = run.result;
  res.strategy = config.strategy;
  res.message_bytes = logical_bytes;
  res.wire_bytes = msg_bytes;
  res.packets = npkt;

  res.gamma = static_cast<double>(config.type->region_count(config.count)) /
              static_cast<double>(npkt);

  // Node 0 only sends. The host-unpack baseline keeps a bounce buffer
  // next to the receive buffer: [0, buffer) receive area, [buffer,
  // buffer+msg) bounce.
  const bool host_based = config.strategy == StrategyKind::kHostUnpack;
  MessageDriver driver(World{
      .fabric = fabric::point_to_point(config.cost),
      .nic = {config.hpus, config.nicmem_bytes},
      .host_bytes = {0, host_based ? buffer_bytes + msg_bytes : buffer_bytes},
      .trace = config.trace,
      .faults = config.faults,
      .retransmit = config.retransmit,
      .ooo_window = config.ooo_window});
  spin::NicModel& nic = driver.nic(1);

  // The landing, before the ready-to-receive goes out. A compute plan
  // replaces the byte-moving strategy unless the baseline is asked for.
  Landing to{.bits = 0x5197,
             .window = window,
             .verify = config.verify,
             .type = config.type,
             .count = config.count,
             .engine = config.pack_engine};
  const Plan* plan = host_based ? nullptr : &driver.install(1, config);
  if (plan == nullptr) {
    to.window = {.base = static_cast<std::int64_t>(buffer_bytes),
                 .bytes = msg_bytes};
  } else {
    to.plan = plan;
    to.check = compute_on ? Landing::Check::kCompute
                          : Landing::Check::kRegions;
    res.nic_descriptor_bytes = plan->descriptor_bytes;
    res.host_setup_time = plan->host_setup_time;
    if (plan->general != nullptr) {
      res.checkpoint_interval = plan->general->checkpoint_interval();
      res.checkpoints = plan->general->checkpoints();
    }
  }
  driver.post(to);
  if (plan != nullptr && plan->compute != nullptr) {
    // Reductions combine into existing buffer contents: pre-load the
    // destination with the deterministic typed pattern the references
    // also start from.
    plan->compute->init_fill(driver.host(1).memory().data(),
                             run.buffer_shift, config.seed);
  }

  // Stream the message (t = 0 is the ready-to-receive instant).
  const std::uint64_t msg_id = 1;
  driver.offer({.id = msg_id, .to = to, .seed = config.seed}, logical_bytes,
               compute_on ? &cc : nullptr);
  driver.drain(1);
  if (driver.failed() > 0) {
    throw std::runtime_error(
        "msg " + std::to_string(msg_id) +
        ": reliable put failed, a packet exhausted max_retries=" +
        std::to_string(config.retransmit.max_retries));
  }
  const auto* info = nic.info(msg_id);
  run.tracer = driver.take_tracer();
  if (run.tracer != nullptr && run.tracer->events_on()) {
    // One span covering the whole message (first byte -> unpack done).
    run.tracer->complete(run.tracer->track("message"), "receive",
                         info->first_byte, info->unpack_done,
                         static_cast<std::int64_t>(msg_id));
  }
  if (run.tracer != nullptr && run.tracer->blame() != nullptr) {
    // Send start -> final DMA landing, closed at done.
    run.blame = run.tracer->blame()->completed().back();
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
  const sim::Engine& engine = driver.engine();
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
  } else if (compute_on) {
    // Offloaded compute: the destination crosses memory once, twice for
    // RMW families (the DMA engine reads it back before combining).
    res.host_traffic_bytes = logical_bytes * (transform ? 1u : 2u);
  } else {
    // Offloaded: the only main-memory traffic is the scattered message.
    res.host_traffic_bytes = msg_bytes;
  }
  res.verified = driver.verified() == 1;
  if (config.keep_buffer) {
    const std::byte* base = driver.host(1).memory().data();
    run.buffer.assign(base, base + buffer_bytes);
  }
  return run;
}

}  // namespace netddt::offload
