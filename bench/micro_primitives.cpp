// Wall-clock microbenchmarks (google-benchmark) of the library's hot
// primitives: type-map flattening, reference pack/unpack, dataloop
// segment streaming, chunked Packer/Unpacker streaming (both byte
// engines), checkpoint-table construction, and the typed element
// kernels of the in-NIC compute path (apply_reduce at every
// read-modify-write landing, fill_typed for every compute payload).
// These guard the simulator's own performance (the figure benches replay
// millions of regions through these paths). Layout shapes come from
// bench/lib/layouts.hpp, shared with pack_kernels so engine
// comparisons measure identical types.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/lib/layouts.hpp"
#include "dataloop/cache.hpp"
#include "dataloop/dataloop.hpp"
#include "dataloop/packer.hpp"
#include "dataloop/program.hpp"
#include "dataloop/segment.hpp"
#include "ddt/datatype.hpp"
#include "ddt/pack.hpp"
#include "spin/compute.hpp"

using namespace netddt;
using bench::layouts::indexed_type;
using bench::layouts::struct_record_type;
using bench::layouts::vector_type;

namespace {

// Shared BM_Pack/BM_Unpack fixture: one layout, its buffers, and the
// packed-stream size (the former duplicated setup of both benches).
struct PackFixture {
  ddt::TypePtr type;
  std::vector<std::byte> layout_buf;
  std::vector<std::byte> stream_buf;

  explicit PackFixture(ddt::TypePtr t) : type(std::move(t)) {
    layout_buf.resize(bench::layouts::buffer_bytes(type, 1));
    stream_buf.resize(type->size());
  }
};

void BM_Flatten(benchmark::State& state) {
  auto t = vector_type(state.range(0), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t->flatten());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Flatten)->Arg(1024)->Arg(16384);

void BM_Pack(benchmark::State& state) {
  PackFixture f(vector_type(state.range(0), 64));
  for (auto _ : state) {
    ddt::pack(f.layout_buf.data(), *f.type, 1, f.stream_buf.data());
    benchmark::DoNotOptimize(f.stream_buf.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.type->size()));
}
BENCHMARK(BM_Pack)->Arg(1024)->Arg(16384);

void BM_Unpack(benchmark::State& state) {
  PackFixture f(vector_type(state.range(0), 64));
  for (auto _ : state) {
    ddt::unpack(f.stream_buf.data(), *f.type, 1, f.layout_buf.data());
    benchmark::DoNotOptimize(f.layout_buf.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.type->size()));
}
BENCHMARK(BM_Unpack)->Arg(1024)->Arg(16384);

void BM_PackIndexed(benchmark::State& state) {
  PackFixture f(indexed_type(state.range(0)));
  for (auto _ : state) {
    ddt::pack(f.layout_buf.data(), *f.type, 1, f.stream_buf.data());
    benchmark::DoNotOptimize(f.stream_buf.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.type->size()));
}
BENCHMARK(BM_PackIndexed)->Arg(256)->Arg(4096);

void BM_PackStruct(benchmark::State& state) {
  auto t = struct_record_type();
  const auto count = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::byte> src(bench::layouts::buffer_bytes(t, count));
  std::vector<std::byte> dst(t->size() * count);
  for (auto _ : state) {
    ddt::pack(src.data(), *t, count, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(dst.size()));
}
BENCHMARK(BM_PackStruct)->Arg(1024)->Arg(16384);

// Chunked streaming through the Packer/Unpacker interface — the exact
// path the sender pack baseline and host-unpack verify run. range(0) is
// the chunk size, range(1) selects the byte engine.
void BM_PackerStream(benchmark::State& state) {
  auto t = vector_type(16384, 64);
  dataloop::CompiledDataloop loops(t);
  const bool programmed = state.range(1) != 0;
  auto prog = programmed ? dataloop::compile_program(loops) : nullptr;
  std::vector<std::byte> src(bench::layouts::buffer_bytes(t, 1));
  std::vector<std::byte> out(loops.total_bytes());
  const auto chunk = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    dataloop::Packer packer(loops, src, prog);
    std::uint64_t at = 0;
    while (!packer.done()) {
      at += packer.pack(
          std::span<std::byte>(out).subspan(at, std::min(chunk,
                                                         out.size() - at)));
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
  state.SetLabel(programmed ? "program" : "interpreter");
}
BENCHMARK(BM_PackerStream)
    ->Args({2048, 0})
    ->Args({2048, 1})
    ->Args({65536, 0})
    ->Args({65536, 1});

void BM_UnpackerStream(benchmark::State& state) {
  auto t = vector_type(16384, 64);
  dataloop::CompiledDataloop loops(t);
  const bool programmed = state.range(1) != 0;
  auto prog = programmed ? dataloop::compile_program(loops) : nullptr;
  std::vector<std::byte> in(loops.total_bytes());
  std::vector<std::byte> dst(bench::layouts::buffer_bytes(t, 1));
  const auto chunk = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    dataloop::Unpacker unpacker(loops, dst, prog);
    std::uint64_t at = 0;
    while (!unpacker.done()) {
      const std::uint64_t n = std::min(chunk, in.size() - at);
      unpacker.unpack(std::span<const std::byte>(in).subspan(at, n));
      at += n;
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
  state.SetLabel(programmed ? "program" : "interpreter");
}
BENCHMARK(BM_UnpackerStream)
    ->Args({2048, 0})
    ->Args({2048, 1})
    ->Args({65536, 0})
    ->Args({65536, 1});

void BM_SegmentStream(benchmark::State& state) {
  auto t = vector_type(16384, 64);
  dataloop::CompiledDataloop loops(t);
  const std::uint64_t window = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    dataloop::Segment seg(loops);
    std::uint64_t emitted = 0;
    for (std::uint64_t at = 0; at < loops.total_bytes(); at += window) {
      const auto end =
          std::min<std::uint64_t>(at + window, loops.total_bytes());
      seg.process(at, end,
                  [&emitted](std::int64_t, std::uint64_t sz) {
                    emitted += sz;
                  });
    }
    benchmark::DoNotOptimize(emitted);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(loops.total_bytes()));
}
BENCHMARK(BM_SegmentStream)->Arg(2048)->Arg(65536);

void BM_SegmentCatchUp(benchmark::State& state) {
  // Catch-up fast path: jump to the middle of a large vector stream.
  auto t = vector_type(1 << 20, 64);
  dataloop::CompiledDataloop loops(t);
  for (auto _ : state) {
    dataloop::Segment seg(loops);
    const auto stats = seg.advance_to(loops.total_bytes() / 2);
    benchmark::DoNotOptimize(stats.catchup_bytes);
  }
}
BENCHMARK(BM_SegmentCatchUp);

void BM_CheckpointTable(benchmark::State& state) {
  auto t = vector_type(16384, 64);
  dataloop::CompiledDataloop loops(t);
  for (auto _ : state) {
    dataloop::CheckpointTable table(loops, 2048);
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_CheckpointTable);

void BM_CompileDataloop(benchmark::State& state) {
  auto inner = ddt::Datatype::vector(8, 2, 4, ddt::Datatype::float64());
  auto t = ddt::Datatype::hvector(64, 1, 4096, inner);
  for (auto _ : state) {
    dataloop::CompiledDataloop loops(t, 4);
    benchmark::DoNotOptimize(loops.serialized_bytes());
  }
}
BENCHMARK(BM_CompileDataloop);

void BM_CompileProgram(benchmark::State& state) {
  auto t = vector_type(state.range(0), 64);
  dataloop::CompiledDataloop loops(t);
  for (auto _ : state) {
    auto prog = dataloop::compile_program(loops);
    benchmark::DoNotOptimize(prog->ops().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompileProgram)->Arg(1024)->Arg(16384);

// Nanoseconds per element over the whole run: the inverted rate of
// `elems` per iteration, scaled from seconds.
benchmark::Counter ns_per_elem(std::size_t elems) {
  return benchmark::Counter(
      static_cast<double>(elems) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// dst (op)= src over range(0) bytes of fill_typed elements; range(1) is
// the ReduceOp, range(2) the ElemType.
void BM_ApplyReduce(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const auto op = static_cast<spin::ReduceOp>(state.range(1));
  const auto elem = static_cast<spin::ElemType>(state.range(2));
  std::vector<std::byte> dst(bytes);
  std::vector<std::byte> src(bytes);
  spin::fill_typed(dst.data(), bytes, elem, 1);
  spin::fill_typed(src.data(), bytes, elem, 2);
  for (auto _ : state) {
    spin::apply_reduce(dst.data(), src.data(), bytes, op, elem);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  const std::size_t elems = bytes / spin::elem_size(elem);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(elems));
  state.counters["ns_per_elem"] = ns_per_elem(elems);
  state.SetLabel(std::string(spin::op_name(op)) + "/" +
                 spin::elem_name(elem));
}
BENCHMARK(BM_ApplyReduce)->ArgsProduct({{2048, 8192}, {0, 1, 2},
                                        {0, 1, 2, 3, 4}});

// 8 KiB of fill_typed elements; range(0) is the ElemType.
void BM_FillTyped(benchmark::State& state) {
  constexpr std::size_t kBytes = 8192;
  const auto elem = static_cast<spin::ElemType>(state.range(0));
  std::vector<std::byte> dst(kBytes);
  std::uint64_t first = 0;
  const std::size_t elems = kBytes / spin::elem_size(elem);
  for (auto _ : state) {
    spin::fill_typed(dst.data(), kBytes, elem, 7, first);
    first += elems;
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(elems));
  state.counters["ns_per_elem"] = ns_per_elem(elems);
  state.SetLabel(spin::elem_name(elem));
}
BENCHMARK(BM_FillTyped)->DenseRange(0, 4);

}  // namespace

BENCHMARK_MAIN();
