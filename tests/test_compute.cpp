// In-network compute handler tests (docs/HANDLERS.md): the typed-element
// primitives, the three handler families end-to-end through run_receive
// (bit-identical to the shared host reference), element-granular resume
// across packet boundaries, duplicate gating, eligibility refusal, and
// the ARCHITECTURE.md metrics-appendix contract.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ddt/datatype.hpp"
#include "offload/compute_plan.hpp"
#include "offload/runner.hpp"
#include "sim/check.hpp"
#include "spin/compute.hpp"

namespace netddt {
namespace {

using ddt::Datatype;
using offload::ComputePlan;
using offload::StrategyKind;
using spin::ComputeConfig;
using spin::ElemType;
using spin::HandlerFamily;
using spin::QuantScheme;
using spin::ReduceOp;

template <typename T>
std::vector<std::byte> bytes_of(const std::vector<T>& v) {
  std::vector<std::byte> out(v.size() * sizeof(T));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

template <typename T>
std::vector<T> typed_of(const std::vector<std::byte>& b) {
  std::vector<T> out(b.size() / sizeof(T));
  std::memcpy(out.data(), b.data(), out.size() * sizeof(T));
  return out;
}

// `call` must throw a Violation whose message names `detail`.
template <typename F>
void expect_violation(F call, const std::string& detail) {
  try {
    call();
    ADD_FAILURE() << "expected a Violation naming " << detail;
  } catch (const sim::check::Violation& v) {
    EXPECT_NE(std::string(v.what()).find(detail), std::string::npos)
        << v.what();
  }
}

TEST(ApplyReduce, IntegerSumMinMax) {
  const std::vector<std::int32_t> dst0{5, -7, 100, 0};
  const std::vector<std::int32_t> src{3, -9, 50, -1};

  auto dst = bytes_of(dst0);
  spin::apply_reduce(dst.data(), bytes_of(src).data(), dst.size(),
                     ReduceOp::kSum, ElemType::kInt32);
  EXPECT_EQ(typed_of<std::int32_t>(dst),
            (std::vector<std::int32_t>{8, -16, 150, -1}));

  dst = bytes_of(dst0);
  spin::apply_reduce(dst.data(), bytes_of(src).data(), dst.size(),
                     ReduceOp::kMin, ElemType::kInt32);
  EXPECT_EQ(typed_of<std::int32_t>(dst),
            (std::vector<std::int32_t>{3, -9, 50, -1}));

  dst = bytes_of(dst0);
  spin::apply_reduce(dst.data(), bytes_of(src).data(), dst.size(),
                     ReduceOp::kMax, ElemType::kInt32);
  EXPECT_EQ(typed_of<std::int32_t>(dst),
            (std::vector<std::int32_t>{5, -7, 100, 0}));
}

TEST(ApplyReduce, SumWrapsWithoutUb) {
  // INT32_MAX + 1 wraps to INT32_MIN: defined because the kernel adds on
  // the unsigned counterpart.
  const std::vector<std::int32_t> a{2147483647};
  const std::vector<std::int32_t> b{1};
  auto dst = bytes_of(a);
  spin::apply_reduce(dst.data(), bytes_of(b).data(), 4, ReduceOp::kSum,
                     ElemType::kInt32);
  EXPECT_EQ(typed_of<std::int32_t>(dst)[0],
            std::numeric_limits<std::int32_t>::min());
}

TEST(ApplyReduce, FloatFamilies) {
  const std::vector<double> dst0{1.5, -2.0, 8.0};
  const std::vector<double> src{0.5, -4.0, 9.0};
  auto dst = bytes_of(dst0);
  spin::apply_reduce(dst.data(), bytes_of(src).data(), dst.size(),
                     ReduceOp::kSum, ElemType::kFloat64);
  EXPECT_EQ(typed_of<double>(dst), (std::vector<double>{2.0, -6.0, 17.0}));

  dst = bytes_of(dst0);
  spin::apply_reduce(dst.data(), bytes_of(src).data(), dst.size(),
                     ReduceOp::kMax, ElemType::kFloat64);
  EXPECT_EQ(typed_of<double>(dst), (std::vector<double>{1.5, -2.0, 9.0}));
}

TEST(ApplyReduce, UnalignedElementPositions) {
  // Elements at odd byte offsets: the memcpy-based kernel must not care.
  std::vector<std::byte> raw(1 + 8, std::byte{0});
  const std::int64_t v = 0x0102030405060708;
  std::memcpy(raw.data() + 1, &v, 8);
  const std::int64_t w = 1;
  std::vector<std::byte> src(8);
  std::memcpy(src.data(), &w, 8);
  spin::apply_reduce(raw.data() + 1, src.data(), 8, ReduceOp::kSum,
                     ElemType::kInt64);
  std::int64_t got = 0;
  std::memcpy(&got, raw.data() + 1, 8);
  EXPECT_EQ(got, v + 1);
}

TEST(ApplyReduce, PartialElementIsAViolation) {
  std::vector<std::byte> dst(8), src(8);
  expect_violation(
      [&] {
        spin::apply_reduce(dst.data(), src.data(), 6, ReduceOp::kSum,
                           ElemType::kInt32);
      },
      "6 bytes of 4-byte elements");
}

TEST(Quantize, PartialHostElementIsAViolation) {
  std::vector<std::byte> wire(8), host(16);
  expect_violation(
      [&] {
        spin::quantize(wire.data(), host.data(), 12, QuantScheme::kF64ToF32);
      },
      "12 bytes of 8-byte elements");
}

TEST(Quantize, PartialWireElementIsAViolation) {
  std::vector<std::byte> host(16), wire(8);
  expect_violation(
      [&] {
        spin::dequantize(host.data(), wire.data(), 6,
                         QuantScheme::kF64ToF32);
      },
      "6 bytes of 4-byte elements");
}

TEST(FillTyped, PartialElementIsAViolation) {
  std::vector<std::byte> dst(16);
  expect_violation(
      [&] { spin::fill_typed(dst.data(), 12, ElemType::kInt64, 1); },
      "12 bytes of 8-byte elements");
}

TEST(Quantize, RoundTripsFillTypedValues) {
  // fill_typed floats are multiples of 0.5 in [-48, 48]: exactly
  // representable in f32 and inside the i8 fixed-point range, so both
  // schemes invert exactly on them.
  for (const QuantScheme q :
       {QuantScheme::kF64ToF32, QuantScheme::kF32ToI8}) {
    const ElemType helem = q == QuantScheme::kF64ToF32 ? ElemType::kFloat64
                                                       : ElemType::kFloat32;
    const std::size_t h = spin::quant_host_elem(q);
    const std::size_t w = spin::quant_wire_elem(q);
    const std::size_t n = 257;
    std::vector<std::byte> host(n * h);
    spin::fill_typed(host.data(), host.size(), helem, 42);
    std::vector<std::byte> wire(n * w);
    spin::quantize(wire.data(), host.data(), host.size(), q);
    std::vector<std::byte> back(n * h, std::byte{0xcc});
    spin::dequantize(back.data(), wire.data(), wire.size(), q);
    EXPECT_EQ(host, back) << spin::quant_name(q);
  }
}

TEST(FillTyped, OffsetWindowMatchesFullFill) {
  // Element k is a pure function of (first_elem + k, seed): refilling a
  // window must reproduce the suffix byte-for-byte. ComputePlan's init
  // fill and host references rely on this.
  for (const ElemType e : {ElemType::kInt8, ElemType::kInt32,
                           ElemType::kInt64, ElemType::kFloat32,
                           ElemType::kFloat64}) {
    const std::size_t sz = spin::elem_size(e);
    std::vector<std::byte> full(64 * sz);
    spin::fill_typed(full.data(), full.size(), e, 7);
    std::vector<std::byte> window(10 * sz);
    spin::fill_typed(window.data(), window.size(), e, 7, /*first_elem=*/17);
    EXPECT_EQ(std::memcmp(window.data(), full.data() + 17 * sz,
                          window.size()),
              0)
        << spin::elem_name(e);
  }
}

// ---------------------------------------------------------------------
// End-to-end through run_receive. verified == true means the NIC-side
// result matched ComputePlan::host_reference bit-for-bit.

offload::ReceiveConfig compute_config(ddt::TypePtr type,
                                      const ComputeConfig& cc) {
  offload::ReceiveConfig cfg;
  cfg.type = std::move(type);
  cfg.strategy = StrategyKind::kRwCp;
  cfg.compute = cc;
  return cfg;
}

TEST(ComputeReceive, StreamingReduceAllOpsAllElems) {
  for (const ElemType e : {ElemType::kInt8, ElemType::kInt32,
                           ElemType::kInt64, ElemType::kFloat32,
                           ElemType::kFloat64}) {
    for (const ReduceOp op :
         {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax}) {
      ComputeConfig cc;
      cc.family = HandlerFamily::kReduce;
      cc.op = op;
      cc.elem = e;
      auto cfg = compute_config(
          Datatype::contiguous(4096, Datatype::elementary(
                                         spin::elem_size(e), "elem")),
          cc);
      const auto run = offload::run_receive(cfg);
      EXPECT_TRUE(run.result.verified)
          << spin::op_name(op) << '/' << spin::elem_name(e);
      EXPECT_EQ(run.metrics.counter("nic.compute.elems"), 4096u);
    }
  }
}

TEST(ComputeReceive, TinyPayloadSplitsElementsAcrossPackets) {
  // 13-byte payloads guarantee every f64 element eventually straddles a
  // packet boundary: the fragment-staging path must reassemble each one
  // exactly once, at any resume offset.
  ComputeConfig cc;
  cc.family = HandlerFamily::kReduce;
  cc.elem = ElemType::kFloat64;
  auto cfg = compute_config(
      Datatype::contiguous(512, Datatype::elementary(8, "f64")), cc);
  cfg.cost.pkt_payload = 13;
  const auto run = offload::run_receive(cfg);
  EXPECT_TRUE(run.result.verified);
  EXPECT_GT(run.metrics.counter("nic.compute.fragments"), 0u);
  // Every element crossed the PCIe exactly once.
  EXPECT_EQ(run.metrics.counter("nic.dma.bytes"), 512u * 8u);
}

TEST(ComputeReceive, AccumulateStridedSurvivesReorder) {
  // MPI_Accumulate shape: strided destination via the dataloop walk,
  // payload packets reordered in windows of 8. One contribution per
  // element makes the result order-independent; both byte engines must
  // agree with the reference.
  for (const auto engine : {dataloop::PackEngine::kInterpreter,
                            dataloop::PackEngine::kProgram}) {
    ComputeConfig cc;
    cc.family = HandlerFamily::kAccumulate;
    cc.op = ReduceOp::kSum;
    cc.elem = ElemType::kInt32;
    auto cfg = compute_config(
        Datatype::vector(512, 3, 7, Datatype::int32()), cc);
    cfg.pack_engine = engine;
    cfg.cost.pkt_payload = 29;  // elements straddle packets constantly
    cfg.ooo_window = 8;
    const auto run = offload::run_receive(cfg);
    EXPECT_TRUE(run.result.verified);
    EXPECT_EQ(run.metrics.counter("nic.compute.elems"), 512u * 3u);
  }
}

TEST(ComputeReceive, TransformShrinksWireBytes) {
  for (const QuantScheme q :
       {QuantScheme::kF64ToF32, QuantScheme::kF32ToI8}) {
    ComputeConfig cc;
    cc.family = HandlerFamily::kTransform;
    cc.quant = q;
    const std::size_t h = spin::quant_host_elem(q);
    auto cfg = compute_config(
        Datatype::contiguous(2048, Datatype::elementary(h, "elem")), cc);
    const auto run = offload::run_receive(cfg);
    EXPECT_TRUE(run.result.verified) << spin::quant_name(q);
    EXPECT_EQ(run.result.message_bytes, 2048u * h);
    EXPECT_EQ(run.result.wire_bytes,
              2048u * spin::quant_wire_elem(q));
    EXPECT_LT(run.result.wire_bytes, run.result.message_bytes);
    EXPECT_EQ(run.metrics.counter("nic.compute.wire_bytes"),
              run.result.wire_bytes);
    EXPECT_EQ(run.metrics.counter("nic.compute.host_bytes"),
              run.result.message_bytes);
  }
}

TEST(ComputeReceive, HostBaselineRunsTheSameRequest) {
  // StrategyKind::kHostUnpack + compute = the ablation_reduce baseline:
  // plain RDMA into the bounce buffer, CPU-side reduction estimate added
  // to the reported times.
  ComputeConfig cc;
  auto cfg = compute_config(
      Datatype::contiguous(4096, Datatype::int32()), cc);
  cfg.strategy = StrategyKind::kHostUnpack;
  const auto run = offload::run_receive(cfg);
  EXPECT_TRUE(run.result.verified);

  auto cfg2 = cfg;
  cfg2.compute.reset();
  const auto plain = offload::run_receive(cfg2);
  EXPECT_GT(run.result.e2e_time, plain.result.e2e_time)
      << "baseline must pay for the CPU reduction pass";
}

TEST(ComputeReceive, DeterministicAcrossRuns) {
  ComputeConfig cc;
  cc.family = HandlerFamily::kAccumulate;
  cc.elem = ElemType::kFloat32;
  auto cfg = compute_config(
      Datatype::vector(256, 4, 6, Datatype::elementary(4, "f32")), cc);
  cfg.cost.pkt_payload = 64;
  const auto a = offload::run_receive(cfg);
  const auto b = offload::run_receive(cfg);
  EXPECT_EQ(a.result.e2e_time, b.result.e2e_time);
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
}

TEST(ComputePlanEligibility, ElementMayNotSpanRegions) {
  // vector(4, 3, 5, int8): regions are 3 bytes each — whole int8s but
  // not whole int32s.
  const auto type = Datatype::vector(4, 3, 5, Datatype::int8());
  ComputeConfig cc;
  cc.family = HandlerFamily::kAccumulate;
  cc.elem = ElemType::kInt8;
  EXPECT_TRUE(ComputePlan::elem_eligible(type, 1, cc));
  cc.elem = ElemType::kInt32;
  EXPECT_FALSE(ComputePlan::elem_eligible(type, 1, cc));

  sim::MetricsRegistry scratch;
  spin::CostModel cost{};
  EXPECT_EQ(ComputePlan::create(type, 1, cost,
                                dataloop::PackEngine::kInterpreter, cc,
                                scratch),
            nullptr);

  // kReduce ignores the region layout — only the total must divide.
  cc.family = HandlerFamily::kReduce;
  EXPECT_TRUE(ComputePlan::elem_eligible(type, 1, cc));  // 12 % 4 == 0
  cc.elem = ElemType::kInt64;
  EXPECT_FALSE(ComputePlan::elem_eligible(type, 1, cc));  // 12 % 8 != 0
}

TEST(ComputePlanEligibility, ScatterFamilyIsAViolation) {
  // kScatter belongs to the byte-moving strategies, never to a plan.
  ComputeConfig cc;
  cc.family = HandlerFamily::kScatter;
  sim::MetricsRegistry scratch;
  EXPECT_THROW(ComputePlan::create(Datatype::contiguous(4, Datatype::int32()),
                                   1, spin::CostModel{},
                                   dataloop::PackEngine::kInterpreter, cc,
                                   scratch),
               sim::check::Violation);
}

TEST(ComputePlanReference, WrongStreamSizeIsAViolation) {
  ComputeConfig cc;  // kReduce sum of int32
  sim::MetricsRegistry scratch;
  const auto plan = ComputePlan::create(
      Datatype::contiguous(4, Datatype::int32()), 1, spin::CostModel{},
      dataloop::PackEngine::kInterpreter, cc, scratch);
  ASSERT_NE(plan, nullptr);
  std::vector<std::byte> buf(16), stream(32);
  expect_violation(
      [&] {
        plan->host_reference(buf.data(), 0, stream.data(), 32, /*seed=*/1);
      },
      "a 32-byte stream for a 16-byte plan");
}

TEST(ComputeReceive, IneligibleConfigIsAViolation) {
  // 12 logical bytes are not whole int64s: run_receive refuses the
  // compute config instead of running without a plan.
  ComputeConfig cc;
  cc.family = HandlerFamily::kReduce;
  cc.elem = ElemType::kInt64;
  const auto cfg =
      compute_config(Datatype::vector(4, 3, 5, Datatype::int8()), cc);
  EXPECT_THROW(offload::run_receive(cfg), sim::check::Violation);
}

TEST(ComputeReceive, DescriptorBytesCoverTheWalkState) {
  // kAccumulate ships the region list (or compiled program); kReduce
  // needs only the family header.
  ComputeConfig cc;
  cc.family = HandlerFamily::kAccumulate;
  cc.elem = ElemType::kInt32;
  auto cfg = compute_config(
      Datatype::vector(64, 2, 5, Datatype::int32()), cc);
  const auto strided = offload::run_receive(cfg);

  ComputeConfig rc;
  auto cfg2 = compute_config(
      Datatype::contiguous(128, Datatype::int32()), rc);
  const auto contig = offload::run_receive(cfg2);

  EXPECT_GT(strided.result.nic_descriptor_bytes,
            contig.result.nic_descriptor_bytes);
  EXPECT_GT(contig.result.nic_descriptor_bytes, 0u);
}

// ---------------------------------------------------------------------
// ARCHITECTURE.md metrics appendix: the table must name every
// dataloop.program.* and nic.compute.* metric the code can publish —
// checked against both a hard list and live runs, so adding a metric
// without documenting it (or documenting a renamed one) fails here.

std::set<std::string> documented_metrics() {
  std::ifstream in(std::string(NETDDT_SOURCE_DIR) +
                   "/docs/ARCHITECTURE.md");
  EXPECT_TRUE(in.good()) << "docs/ARCHITECTURE.md not readable";
  std::set<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    std::size_t at = 0;
    while ((at = line.find('`', at)) != std::string::npos) {
      const std::size_t end = line.find('`', at + 1);
      if (end == std::string::npos) break;
      const std::string name = line.substr(at + 1, end - at - 1);
      // Concrete metric names only; `nic.compute.*` in prose is a
      // family reference, not a row.
      if ((name.rfind("dataloop.program.", 0) == 0 ||
           name.rfind("nic.compute.", 0) == 0) &&
          name.find('*') == std::string::npos) {
        out.insert(name);
      }
      at = end + 1;
    }
  }
  return out;
}

TEST(MetricsAppendix, DocumentsEveryRegisteredMetric) {
  const std::set<std::string> docs = documented_metrics();

  // The complete lists the source can register (kept in lockstep with
  // the appendix table; a rename must touch both).
  const std::set<std::string> expected{
      "dataloop.program.ops",
      "dataloop.program.leaf_runs",
      "dataloop.program.table_entries",
      "dataloop.program.bytes_per_instance",
      "dataloop.program.fused_run_ratio_ppm",
      "dataloop.program.bytes_per_op_milli",
      "nic.compute.elems",
      "nic.compute.rmw_writes",
      "nic.compute.rmw_bytes",
      "nic.compute.fragments",
      "nic.compute.dup_suppressed",
      "nic.compute.host_bytes",
      "nic.compute.wire_bytes",
  };
  for (const std::string& name : expected) {
    EXPECT_TRUE(docs.count(name)) << name << " missing from the "
                                  << "ARCHITECTURE.md metrics appendix";
  }
  for (const std::string& name : docs) {
    EXPECT_TRUE(expected.count(name))
        << name << " documented but unknown to the source";
  }

  // Live cross-check: everything a compute run (dup-heavy, program
  // engine) actually publishes under these prefixes is documented.
  ComputeConfig cc;
  cc.family = HandlerFamily::kAccumulate;
  auto cfg = compute_config(
      Datatype::vector(256, 2, 5, Datatype::int32()), cc);
  cfg.pack_engine = dataloop::PackEngine::kProgram;
  cfg.cost.pkt_payload = 29;
  cfg.faults.dup_rate = 0.4;
  cfg.faults.seed = 3;
  const auto run = offload::run_receive(cfg);
  EXPECT_TRUE(run.result.verified);
  for (const auto& [name, value] : run.metrics.counters) {
    if (name.rfind("dataloop.program.", 0) == 0 ||
        name.rfind("nic.compute.", 0) == 0) {
      EXPECT_TRUE(docs.count(name))
          << name << " published but not in the metrics appendix";
    }
  }
}

}  // namespace
}  // namespace netddt
