#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "dataloop/dataloop.hpp"
#include "dataloop/packer.hpp"
#include "dataloop/program.hpp"
#include "ddt/pack.hpp"
#include "p4/match.hpp"
#include "sim/engine.hpp"

namespace perf_ladder {

namespace dl = netddt::dataloop;
namespace ddt = netddt::ddt;

namespace {

constexpr std::uint64_t kChunk = 2048;

/// A layout buffer whose base may sit above the allocation start, so
/// negative-lb types keep every region inside the vector.
struct LayoutBuffer {
  std::vector<std::byte> storage;
  std::int64_t shift = 0;

  LayoutBuffer(const ddt::TypePtr& type, std::uint64_t count,
               std::byte fill) {
    const std::int64_t lo =
        std::min({std::int64_t{0}, type->lb(), type->true_lb()});
    const std::int64_t hi =
        std::max({std::int64_t{0}, type->ub(), type->true_ub()});
    shift = -lo;
    storage.assign(static_cast<std::size_t>(
                       shift + type->extent() *
                                   static_cast<std::int64_t>(count - 1) +
                       hi + 64),
                   fill);
  }
  std::byte* base() { return storage.data() + shift; }
  std::span<std::byte> span() {
    return std::span<std::byte>(storage).subspan(
        static_cast<std::size_t>(shift));
  }
};

template <typename Fn>
double best_of_three(Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

struct Totals {
  double seconds = 0.0;
  double bytes = 0.0;
  double gbps() const { return seconds > 0 ? bytes / seconds / 1e9 : 0.0; }
};

}  // namespace

ByteEngines measure_byte_engines(const std::vector<Layout>& layouts,
                                 std::uint64_t min_bytes,
                                 SpanRecorder& spans) {
  ByteEngines out;
  Totals seg_pack, seg_unpack, prog_pack, prog_unpack, ref_pack, ref_unpack,
      copy;
  double compile_s = 0.0, program_s = 0.0;
  for (const Layout& l : layouts) {
    auto layout_span = spans.span("dataloop " + l.name, /*new_call=*/true);
    std::unique_ptr<dl::CompiledDataloop> loops;
    {
      auto s = spans.span("dataloop::CompiledDataloop");
      compile_s += best_of_three([&] {
        loops = std::make_unique<dl::CompiledDataloop>(l.type, l.count);
      });
    }
    std::shared_ptr<const dl::FlatProgram> prog;
    {
      auto s = spans.span("dataloop::compile_program");
      program_s += best_of_three([&] { prog = dl::compile_program(*loops); });
    }
    const std::uint64_t bytes = loops->total_bytes();
    if (bytes == 0) continue;
    const std::uint64_t reps = std::max<std::uint64_t>(
        1, (min_bytes + bytes - 1) / bytes);

    LayoutBuffer src(l.type, l.count, std::byte{0});
    for (std::size_t i = 0; i < src.storage.size(); ++i) {
      src.storage[i] = static_cast<std::byte>(i * 131 + 7);
    }
    std::vector<std::byte> stream_seg(bytes), stream_prog(bytes),
        stream_ref(bytes), scratch(bytes);

    const auto timed = [&](Totals& t, const char* name, auto&& body) {
      auto s = spans.span(name);
      const auto t0 = Clock::now();
      for (std::uint64_t r = 0; r < reps; ++r) body();
      t.seconds += seconds_since(t0);
      t.bytes += static_cast<double>(bytes * reps);
    };
    // A null program runs the Segment interpreter (as does a layout whose
    // program exceeds ProgramLimits — the engines' own fallback).
    using Program = std::shared_ptr<const dl::FlatProgram>;
    const auto pack_chunks = [&](const Program& p,
                                 std::vector<std::byte>& out_stream) {
      dl::Packer packer(*loops, src.span(), p);
      std::uint64_t at = 0;
      while (!packer.done()) {
        at += packer.pack(std::span<std::byte>(out_stream)
                              .subspan(at, std::min(kChunk, bytes - at)));
      }
    };
    const auto unpack_chunks = [&](const Program& p, LayoutBuffer& dst) {
      dl::Unpacker unpacker(*loops, dst.span(), p);
      std::uint64_t at = 0;
      while (!unpacker.done()) {
        const std::uint64_t n = std::min(kChunk, bytes - at);
        unpacker.unpack(std::span<const std::byte>(stream_ref).subspan(at, n));
        at += n;
      }
    };

    timed(seg_pack, "dataloop::Packer segment",
          [&] { pack_chunks(nullptr, stream_seg); });
    timed(prog_pack, "dataloop::Packer program",
          [&] { pack_chunks(prog, stream_prog); });
    timed(ref_pack, "ddt::pack",
          [&] { ddt::pack(src.base(), *l.type, l.count, stream_ref.data()); });
    timed(copy, "memcpy", [&] {
      std::memcpy(scratch.data(), stream_ref.data(), bytes);
    });

    LayoutBuffer dst_seg(l.type, l.count, std::byte{0x11});
    LayoutBuffer dst_prog(l.type, l.count, std::byte{0x11});
    LayoutBuffer dst_ref(l.type, l.count, std::byte{0x11});
    timed(seg_unpack, "dataloop::Unpacker segment",
          [&] { unpack_chunks(nullptr, dst_seg); });
    timed(prog_unpack, "dataloop::Unpacker program",
          [&] { unpack_chunks(prog, dst_prog); });
    timed(ref_unpack, "ddt::unpack", [&] {
      ddt::unpack(stream_ref.data(), *l.type, l.count, dst_ref.base());
    });

    // A wrong byte is a failed operation, never a fast one.
    out.checked += 1;
    const bool ok = stream_seg == stream_ref && stream_prog == stream_ref &&
                    dst_seg.storage == dst_ref.storage &&
                    dst_prog.storage == dst_ref.storage;
    if (!ok) out.mismatches += 1;
  }
  out.segment_pack_gbps = seg_pack.gbps();
  out.segment_unpack_gbps = seg_unpack.gbps();
  out.program_pack_gbps = prog_pack.gbps();
  out.program_unpack_gbps = prog_unpack.gbps();
  out.ddt_pack_gbps = ref_pack.gbps();
  out.ddt_unpack_gbps = ref_unpack.gbps();
  out.memcpy_gbps = copy.gbps();
  const double n =
      static_cast<double>(std::max<std::size_t>(layouts.size(), 1));
  out.compile_us = compile_s / n * 1e6;
  out.program_compile_us = program_s / n * 1e6;
  return out;
}

double engine_ns_per_event(std::uint64_t events, SpanRecorder& spans) {
  auto span = spans.span("sim::Engine dispatch", /*new_call=*/true);
  struct Tick {
    netddt::sim::Engine* engine;
    std::uint64_t* left;
    std::uint64_t rng;
    void operator()() {
      if (*left == 0) return;
      --*left;
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      engine->schedule(static_cast<netddt::sim::Time>(1 + (rng >> 52)),
                       *this);
    }
  };
  netddt::sim::Engine engine;
  std::uint64_t left = events;
  for (std::uint64_t c = 0; c < 64; ++c) {
    engine.schedule(static_cast<netddt::sim::Time>(c),
                    Tick{&engine, &left, c * 0x9E3779B97F4A7C15ull + 1});
  }
  const auto t0 = Clock::now();
  engine.run();
  const double s = seconds_since(t0);
  return s * 1e9 / static_cast<double>(engine.executed());
}

std::optional<double> match_ns_per_op(std::uint64_t posted,
                                      std::uint64_t ops,
                                      SpanRecorder& spans) {
  auto span = spans.span("p4::MatchEngine append+match " +
                             std::to_string(posted) + " posted",
                         /*new_call=*/true);
  namespace p4 = netddt::p4;
  auto engine = p4::make_match_engine(p4::MatchEngineKind::kHashed);
  // Two tenants' disjoint high-bit prefixes, as the service encodes them.
  const auto key = [](std::uint64_t seq) {
    return ((seq % 2 + 1) << 40) | seq;
  };
  std::uint64_t next = 0;
  const auto append = [&] {
    p4::MatchEntry e;
    e.id = next + 1;
    e.match_bits = key(next);
    engine->append(p4::ListKind::kPriority, e);
    ++next;
  };
  for (std::uint64_t i = 0; i < posted; ++i) append();
  std::uint64_t oldest = 0, misses = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    append();
    misses += !engine->match(key(oldest++)).has_value();
  }
  const double s = seconds_since(t0);
  // Every probe targets a posted entry; a miss is a broken engine, and
  // its (fast) number must not be reported.
  if (misses != 0) return std::nullopt;
  return s * 1e9 / static_cast<double>(ops);
}

}  // namespace perf_ladder
