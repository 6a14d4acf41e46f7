#include "fuzz/oracle.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "dataloop/dataloop.hpp"
#include "dataloop/program.hpp"
#include "dataloop/segment.hpp"
#include "ddt/codec.hpp"
#include "ddt/pack.hpp"
#include "offload/compute_plan.hpp"
#include "offload/runner.hpp"
#include "p4/packet.hpp"
#include "sim/rng.hpp"

namespace netddt::fuzz {

std::vector<offload::StrategyKind> oracle_strategies() {
  return {offload::StrategyKind::kSpecialized,
          offload::StrategyKind::kHpuLocal, offload::StrategyKind::kRoCp,
          offload::StrategyKind::kRwCp};
}

namespace {

bool same_layout(const ddt::Datatype& a, const ddt::Datatype& b,
                 std::string& why) {
  if (a.size() != b.size() || a.lb() != b.lb() || a.ub() != b.ub() ||
      a.true_lb() != b.true_lb() || a.true_ub() != b.true_ub()) {
    std::ostringstream os;
    os << "bounds differ: size " << a.size() << "/" << b.size() << " lb "
       << a.lb() << "/" << b.lb() << " ub " << a.ub() << "/" << b.ub()
       << " true_lb " << a.true_lb() << "/" << b.true_lb() << " true_ub "
       << a.true_ub() << "/" << b.true_ub();
    why = os.str();
    return false;
  }
  const auto ra = a.flatten(1);
  const auto rb = b.flatten(1);
  if (ra.size() != rb.size()) {
    why = "region counts differ: " + std::to_string(ra.size()) + " vs " +
          std::to_string(rb.size());
    return false;
  }
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].offset != rb[i].offset || ra[i].size != rb[i].size) {
      std::ostringstream os;
      os << "region " << i << " differs: (" << ra[i].offset << ", "
         << ra[i].size << ") vs (" << rb[i].offset << ", " << rb[i].size
         << ")";
      why = os.str();
      return false;
    }
  }
  return true;
}

// Three-way byte-engine differential: the compiled flat program, the
// Segment interpreter and the one-shot ddt::pack/unpack reference must
// move identical bytes when the stream is cut at seed-derived chunk
// boundaries and resumed mid-layout. Raw base pointers + shift keep
// negative-lb layouts inside the buffers (the span-checked Packer API
// rejects negative offsets by design). Returns the first divergence as
// a human-readable string, empty on agreement.
std::string engine_differential(const ddt::TypePtr& type,
                                std::uint64_t count, std::uint64_t seed) {
  dataloop::CompiledDataloop loops(type, count);
  const auto prog = dataloop::compile_program(loops);
  const std::uint64_t total = loops.total_bytes();
  if (total == 0) return {};
  if (prog == nullptr) return {};  // over ProgramLimits: interpreter-only
  if (prog->total_bytes() != total) {
    return "program total_bytes " + std::to_string(prog->total_bytes()) +
           " != dataloop total " + std::to_string(total);
  }

  const std::int64_t lo =
      std::min<std::int64_t>({0, type->lb(), type->true_lb()});
  const std::int64_t hi =
      std::max<std::int64_t>({0, type->ub(), type->true_ub()});
  const std::size_t shift = static_cast<std::size_t>(-lo);
  const std::size_t buf_bytes =
      shift + static_cast<std::size_t>(type->extent()) * (count - 1) +
      static_cast<std::size_t>(hi) + 64;

  sim::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<std::byte> src(buf_bytes);
  for (auto& b : src) b = static_cast<std::byte>(rng.next());

  // Random resumption boundaries, including mid-block cuts.
  std::vector<std::uint64_t> cuts{0, total};
  for (int i = 0; i < 8; ++i) cuts.push_back(rng.below(total + 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  auto first_diff = [](const std::vector<std::byte>& a,
                       const std::vector<std::byte>& b) {
    std::size_t at = 0;
    while (at < a.size() && a[at] == b[at]) ++at;
    return at;
  };

  // Pack: reference one-shot vs both chunked engines.
  std::vector<std::byte> ref(total);
  ddt::pack(src.data() + shift, *type, count, ref.data());
  std::vector<std::byte> via_prog(total, std::byte{0xee});
  std::vector<std::byte> via_seg(total, std::byte{0xee});
  dataloop::Segment seg(loops);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::uint64_t f = cuts[i];
    const std::uint64_t l = cuts[i + 1];
    prog->pack(src.data() + shift, f, l, via_prog.data() + f);
    std::uint64_t at = f;
    seg.process(f, l, [&](std::int64_t off, std::uint64_t sz) {
      std::memcpy(via_seg.data() + at, src.data() + shift + off, sz);
      at += sz;
    });
  }
  if (via_prog != ref) {
    return "engine pack: program differs from reference at stream byte " +
           std::to_string(first_diff(via_prog, ref));
  }
  if (via_seg != ref) {
    return "engine pack: segment differs from reference at stream byte " +
           std::to_string(first_diff(via_seg, ref));
  }

  // Unpack: scatter the reference stream back through all three paths
  // over identically-filled buffers; whole-buffer compare catches writes
  // outside the typed regions too.
  std::vector<std::byte> up_ref(buf_bytes, std::byte{0x5a});
  std::vector<std::byte> up_prog(up_ref);
  std::vector<std::byte> up_seg(up_ref);
  ddt::unpack(ref.data(), *type, count, up_ref.data() + shift);
  dataloop::Segment unseg(loops);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::uint64_t f = cuts[i];
    const std::uint64_t l = cuts[i + 1];
    prog->unpack(ref.data() + f, f, l, up_prog.data() + shift);
    std::uint64_t at = f;
    unseg.process(f, l, [&](std::int64_t off, std::uint64_t sz) {
      std::memcpy(up_seg.data() + shift + off, ref.data() + at, sz);
      at += sz;
    });
  }
  if (up_prog != up_ref) {
    return "engine unpack: program differs from reference at buffer byte " +
           std::to_string(first_diff(up_prog, up_ref));
  }
  if (up_seg != up_ref) {
    return "engine unpack: segment differs from reference at buffer byte " +
           std::to_string(first_diff(up_seg, up_ref));
  }
  return {};
}

}  // namespace

OracleOutcome run_oracle(
    const FuzzCase& fc,
    const std::vector<offload::StrategyKind>& strategies) {
  OracleOutcome out;
  auto fail = [&out](std::string detail) {
    if (out.ok) {
      out.ok = false;
      out.detail = std::move(detail);
    }
  };

  ddt::TypePtr type;
  try {
    type = build(fc.spec);
  } catch (const std::exception& e) {
    fail(std::string("build threw: ") + e.what());
    return out;
  }

  out.msg_bytes = type->size() * fc.count;
  spin::CostModel cost{};
  cost.pkt_payload = fc.pkt_payload;
  out.packets = p4::packet_count(out.msg_bytes, fc.pkt_payload);

  // Codec round-trip: encode -> decode must reproduce the layout.
  try {
    const auto encoded = ddt::encode(type);
    const auto decoded = ddt::decode(encoded);
    if (!decoded.has_value() || *decoded == nullptr) {
      fail("codec: decode(encode(type)) failed");
      return out;
    }
    std::string why;
    if (!same_layout(*type, **decoded, why)) {
      fail("codec round-trip changed the layout: " + why);
      return out;
    }
  } catch (const std::exception& e) {
    fail(std::string("codec threw: ") + e.what());
    return out;
  }

  // Byte-engine differential (host-side, no simulation): flat program
  // vs Segment interpreter vs ddt::pack/unpack, resumed at seed-derived
  // chunk boundaries.
  try {
    std::string diff = engine_differential(type, fc.count, fc.seed);
    if (!diff.empty()) {
      fail(std::move(diff));
      return out;
    }
  } catch (const std::exception& e) {
    fail(std::string("engine differential threw: ") + e.what());
    return out;
  }

  // The reference: host unpack of the exact packed stream run_receive
  // sends, laid into a buffer the size every strategy run reports.
  const auto pattern =
      offload::packed_message_pattern(out.msg_bytes, fc.seed);

  sim::faults::FaultConfig faults;
  if (fc.lossy) {
    faults.drop_rate = fc.drop_rate;
    faults.dup_rate = fc.dup_rate;
    faults.reorder_rate = fc.reorder_rate;
    faults.reorder_window = fc.reorder_window;
    faults.seed = fc.seed;
  }

  std::vector<std::byte> expected;  // built from the first run's shape
  for (const offload::StrategyKind strategy : strategies) {
    offload::ReceiveConfig rc;
    rc.type = type;
    rc.count = fc.count;
    rc.strategy = strategy;
    rc.cost = cost;
    rc.seed = fc.seed;
    rc.faults = faults;
    // Alternate the byte engine by seed so the program-mode specialized
    // handler and program-based verify run under the same oracle.
    rc.pack_engine = (fc.seed & 1) != 0 ? dataloop::PackEngine::kProgram
                                        : dataloop::PackEngine::kInterpreter;
    rc.keep_buffer = true;
    offload::ReceiveRun run;
    try {
      run = offload::run_receive(rc);
    } catch (const std::exception& e) {
      fail(std::string(offload::strategy_name(strategy)) + " threw: " +
           e.what());
      return out;
    }
    const char* name = offload::strategy_name(strategy).data();
    if (!run.result.verified) {
      fail(std::string(name) + ": region verification failed");
      return out;
    }
    if (run.result.packets != out.packets) {
      fail(std::string(name) + ": packet count " +
           std::to_string(run.result.packets) + " != expected " +
           std::to_string(out.packets));
      return out;
    }
    if (expected.empty() && !run.buffer.empty()) {
      expected.assign(run.buffer.size(), std::byte{0});
      ddt::unpack(pattern.data(), *type, fc.count,
                  expected.data() + run.buffer_shift);
    }
    if (run.buffer.size() != expected.size()) {
      fail(std::string(name) + ": buffer size " +
           std::to_string(run.buffer.size()) + " != reference " +
           std::to_string(expected.size()));
      return out;
    }
    if (std::memcmp(run.buffer.data(), expected.data(),
                    expected.size()) != 0) {
      std::size_t at = 0;
      while (at < expected.size() && run.buffer[at] == expected[at]) ++at;
      fail(std::string(name) + ": buffer differs from host unpack at byte " +
           std::to_string(at) + " (shift " +
           std::to_string(run.buffer_shift) + ")");
      return out;
    }
    // Metric consistency: every packet processed exactly once.
    const std::uint64_t delivered =
        run.metrics.counter("nic.pkts.delivered");
    const std::uint64_t duplicate =
        run.metrics.counter("nic.pkts.duplicate");
    if (delivered - duplicate != out.packets) {
      fail(std::string(name) + ": unique deliveries " +
           std::to_string(delivered - duplicate) + " != packet count " +
           std::to_string(out.packets));
      return out;
    }
    if (!fc.lossy) {
      const std::uint64_t dma = run.metrics.counter("nic.dma.bytes");
      if (dma != out.msg_bytes) {
        fail(std::string(name) + ": lossless DMA total " +
             std::to_string(dma) + " != message bytes " +
             std::to_string(out.msg_bytes));
        return out;
      }
    }
  }

  // Host pack/unpack baseline: the bounce buffer must carry the packed
  // stream byte-for-byte.
  {
    offload::ReceiveConfig rc;
    rc.type = type;
    rc.count = fc.count;
    rc.strategy = offload::StrategyKind::kHostUnpack;
    rc.cost = cost;
    rc.seed = fc.seed;
    rc.faults = faults;
    rc.pack_engine = (fc.seed & 1) != 0 ? dataloop::PackEngine::kProgram
                                        : dataloop::PackEngine::kInterpreter;
    try {
      const auto run = offload::run_receive(rc);
      if (!run.result.verified) {
        fail("Host baseline: bounce buffer verification failed");
        return out;
      }
    } catch (const std::exception& e) {
      fail(std::string("Host baseline threw: ") + e.what());
      return out;
    }
  }

  // In-network compute differential: rerun the receive with the compute
  // handler installed (both dataloop walks) under the same fault schedule
  // and demand the buffer be bit-identical to an independently rebuilt
  // ComputePlan::host_reference. Dup-heavy plans prove the RMW
  // idempotence contract: a replayed packet must not accumulate twice.
  // Shrink edits may have broken element eligibility; skip then (the
  // byte-moving sections above already ran).
  if (fc.compute &&
      offload::ComputePlan::elem_eligible(type, fc.count, fc.cc)) {
    const std::uint64_t logical = type->size() * fc.count;
    std::vector<std::byte> stream(logical);
    spin::fill_typed(stream.data(), logical, fc.cc.elem, fc.seed);
    for (const auto engine : {dataloop::PackEngine::kInterpreter,
                              dataloop::PackEngine::kProgram}) {
      const char* ename =
          engine == dataloop::PackEngine::kProgram ? "program" : "interp";
      offload::ReceiveConfig rc;
      rc.type = type;
      rc.count = fc.count;
      rc.strategy = offload::StrategyKind::kRwCp;
      rc.cost = cost;
      rc.seed = fc.seed;
      rc.faults = faults;
      rc.pack_engine = engine;
      rc.compute = fc.cc;
      rc.keep_buffer = true;
      offload::ReceiveRun run;
      try {
        run = offload::run_receive(rc);
      } catch (const std::exception& e) {
        fail(std::string("compute/") + ename + " threw: " + e.what());
        return out;
      }
      if (!run.result.verified) {
        fail(std::string("compute/") + ename +
             ": buffer differs from compute host reference");
        return out;
      }
      // Independent cross-check of the runner's own verification: rebuild
      // the reference here from the typed stream.
      sim::MetricsRegistry scratch;
      const auto plan = offload::ComputePlan::create(type, fc.count, cost,
                                                     engine, fc.cc, scratch);
      if (plan == nullptr) {
        fail(std::string("compute/") + ename +
             ": elem_eligible true but create() refused");
        return out;
      }
      std::vector<std::byte> expect(run.buffer.size());
      plan->host_reference(expect.data(), run.buffer_shift, stream.data(),
                           stream.size(), fc.seed);
      if (run.buffer != expect) {
        std::size_t at = 0;
        while (at < expect.size() && run.buffer[at] == expect[at]) ++at;
        fail(std::string("compute/") + ename +
             ": oracle reference differs at buffer byte " +
             std::to_string(at));
        return out;
      }
      // Idempotence evidence: every duplicate delivery that reached the
      // RMW context was gated by the seen bitmap.
      const std::uint64_t suppressed =
          run.metrics.counter("nic.compute.dup_suppressed");
      if (run.result.dup_deliveries > 0 && suppressed == 0) {
        fail(std::string("compute/") + ename + ": " +
             std::to_string(run.result.dup_deliveries) +
             " duplicate deliveries but none suppressed");
        return out;
      }
      if (!fc.lossy) {
        const std::uint64_t dma = run.metrics.counter("nic.dma.bytes");
        if (dma != logical) {
          fail(std::string("compute/") + ename + ": lossless DMA total " +
               std::to_string(dma) + " != logical bytes " +
               std::to_string(logical));
          return out;
        }
      }
    }
  }
  return out;
}

}  // namespace netddt::fuzz
