// Tests for the incremental Packer/Unpacker: chunked processing must
// agree with the one-shot reference pack/unpack for any chunking.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "dataloop/packer.hpp"
#include "ddt/pack.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace netddt::dataloop {
namespace {

using ddt::Datatype;
using ddt::TypePtr;

TypePtr sample_type() {
  auto inner = Datatype::vector(3, 2, 4, Datatype::float64());
  return Datatype::hvector(5, 1, 512, inner);
}

std::vector<std::byte> patterned(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>(i * 31);
  return v;
}

TEST(Packer, OneShotMatchesReference) {
  auto t = sample_type();
  CompiledDataloop loops(t, 2);
  const auto src = patterned(static_cast<std::size_t>(t->extent()) * 2 + 64);

  Packer packer(loops, src);
  std::vector<std::byte> out(loops.total_bytes());
  EXPECT_EQ(packer.pack(out), loops.total_bytes());
  EXPECT_TRUE(packer.done());

  EXPECT_EQ(out, ddt::pack_to_vector(src.data(), *t, 2));
}

TEST(Packer, TinyChunksMatchReference) {
  auto t = sample_type();
  CompiledDataloop loops(t);
  const auto src = patterned(static_cast<std::size_t>(t->extent()) + 64);
  const auto want = ddt::pack_to_vector(src.data(), *t, 1);

  Packer packer(loops, src);
  std::vector<std::byte> got;
  std::byte chunk[7];
  while (!packer.done()) {
    const auto n = packer.pack(chunk);
    got.insert(got.end(), chunk, chunk + n);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(packer.pack(chunk), 0u) << "pack after done yields nothing";
}

TEST(Packer, PositionAdvances) {
  auto t = sample_type();
  CompiledDataloop loops(t);
  const auto src = patterned(static_cast<std::size_t>(t->extent()) + 64);
  Packer packer(loops, src);
  std::vector<std::byte> buf(10);
  packer.pack(buf);
  EXPECT_EQ(packer.position(), 10u);
  packer.pack(buf);
  EXPECT_EQ(packer.position(), 20u);
}

TEST(Unpacker, ChunkedMatchesReference) {
  auto t = sample_type();
  CompiledDataloop loops(t, 3);
  std::vector<std::byte> packed(loops.total_bytes());
  for (std::size_t i = 0; i < packed.size(); ++i) {
    packed[i] = static_cast<std::byte>(i * 7 + 3);
  }
  const std::size_t dest_size =
      static_cast<std::size_t>(t->extent()) * 3 + 64;
  std::vector<std::byte> want(dest_size, std::byte{0});
  ddt::unpack(packed.data(), *t, 3, want.data());

  std::vector<std::byte> got(dest_size, std::byte{0});
  Unpacker unpacker(loops, got);
  std::size_t at = 0;
  sim::Rng rng(5);
  while (at < packed.size()) {
    const auto n = std::min<std::size_t>(1 + rng.below(97),
                                         packed.size() - at);
    unpacker.unpack(std::span(packed).subspan(at, n));
    at += n;
  }
  EXPECT_TRUE(unpacker.done());
  EXPECT_EQ(got, want);
}

TEST(PackerUnpacker, RoundTripRandomChunkings) {
  sim::Rng rng(11);
  for (int iter = 0; iter < 10; ++iter) {
    auto t = Datatype::hvector(rng.range(4, 64), rng.range(1, 48),
                               rng.range(48, 128), Datatype::int8());
    CompiledDataloop loops(t, 1 + rng.below(3));
    const std::size_t buf_size = static_cast<std::size_t>(t->extent()) *
                                     loops.count() +
                                 64;
    const auto src = patterned(buf_size);

    Packer packer(loops, src);
    std::vector<std::byte> stream(loops.total_bytes());
    std::size_t at = 0;
    while (!packer.done()) {
      const auto want =
          std::min<std::size_t>(1 + rng.below(300), stream.size() - at);
      at += packer.pack(std::span(stream).subspan(at, want));
    }

    std::vector<std::byte> dst(buf_size, std::byte{0});
    Unpacker unpacker(loops, dst);
    unpacker.unpack(stream);

    // Every covered byte must round trip.
    for (const auto& r : t->flatten(loops.count())) {
      EXPECT_EQ(std::memcmp(dst.data() + r.offset, src.data() + r.offset,
                            r.size),
                0);
    }
  }
}

// Caller errors are Violations in every build type, naming the bad
// region or chunk: a buffer too small for the layout, and a chunk past
// the end of the stream (both byte engines).
void expect_violation(const auto& call, const std::string& needle) {
  try {
    call();
    ADD_FAILURE() << "no Violation; expected \"" << needle << "\"";
  } catch (const sim::check::Violation& v) {
    EXPECT_NE(std::string(v.what()).find(needle), std::string::npos)
        << v.what();
  }
}

TEST(Packer, SourceTooSmallForTheLayoutIsAViolation) {
  auto t = sample_type();
  CompiledDataloop loops(t);
  const auto src = patterned(600);  // the second block starts at 512
  Packer packer(loops, src);
  std::vector<std::byte> out(loops.total_bytes());
  expect_violation([&] { packer.pack(out); },
                   "Packer::pack: source region [");
}

TEST(Unpacker, DestinationTooSmallForTheLayoutIsAViolation) {
  auto t = sample_type();
  CompiledDataloop loops(t);
  std::vector<std::byte> dst(600);
  Unpacker unpacker(loops, dst);
  const std::vector<std::byte> packed(loops.total_bytes());
  expect_violation([&] { unpacker.unpack(packed); },
                   "outside a 600-byte buffer");
}

TEST(Unpacker, ChunkPastTheStreamIsAViolation) {
  auto t = sample_type();
  CompiledDataloop loops(t);
  std::vector<std::byte> dst(static_cast<std::size_t>(t->extent()) + 64);
  const std::vector<std::byte> packed(loops.total_bytes() + 1);
  const std::string overrun =
      "chunk [0, " + std::to_string(packed.size()) + ") overruns a " +
      std::to_string(loops.total_bytes()) + "-byte stream";
  Unpacker interpreter(loops, dst);
  expect_violation([&] { interpreter.unpack(packed); }, overrun);
  Unpacker program(loops, dst, compile_program(loops));
  expect_violation([&] { program.unpack(packed); }, overrun);
}

}  // namespace
}  // namespace netddt::dataloop
