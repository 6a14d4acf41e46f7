#include "dataloop/packer.hpp"

#include <cstring>
#include <string>

#include "sim/check.hpp"

namespace netddt::dataloop {

namespace {

std::string outside(std::int64_t off, std::uint64_t sz, std::size_t bytes) {
  return "region [" + std::to_string(off) + ", +" + std::to_string(sz) +
         ") outside a " + std::to_string(bytes) + "-byte buffer";
}

std::string overrun(std::uint64_t first, std::uint64_t last,
                    std::uint64_t total) {
  return "chunk [" + std::to_string(first) + ", " + std::to_string(last) +
         ") overruns a " + std::to_string(total) + "-byte stream";
}

}  // namespace

std::uint64_t Packer::pack(std::span<std::byte> out) {
  if (program_) {
    const std::uint64_t last = std::min<std::uint64_t>(
        pos_ + out.size(), program_->total_bytes());
    const std::uint64_t n = last - pos_;
    program_->pack(source_.data(), pos_, last, out.data());
    pos_ = last;
    return n;
  }
  const std::uint64_t first = segment_.position();
  const std::uint64_t last =
      std::min<std::uint64_t>(first + out.size(), segment_.total_bytes());
  std::uint64_t written = 0;
  segment_.process(first, last, [&](std::int64_t off, std::uint64_t sz) {
    NETDDT_CHECK(off >= 0 &&
                     static_cast<std::uint64_t>(off) + sz <= source_.size(),
                 "Packer::pack: source " +
                     outside(off, sz, source_.size()));
    std::memcpy(out.data() + written, source_.data() + off, sz);
    written += sz;
  });
  return written;
}

void Unpacker::unpack(std::span<const std::byte> in) {
  if (program_) {
    const std::uint64_t last = pos_ + in.size();
    NETDDT_CHECK(last <= program_->total_bytes(),
                 "Unpacker::unpack: " +
                     overrun(pos_, last, program_->total_bytes()));
    program_->unpack(in.data(), pos_, last, dest_.data());
    pos_ = last;
    return;
  }
  const std::uint64_t first = segment_.position();
  const std::uint64_t last = first + in.size();
  NETDDT_CHECK(last <= segment_.total_bytes(),
               "Unpacker::unpack: " +
                   overrun(first, last, segment_.total_bytes()));
  std::uint64_t consumed = 0;
  segment_.process(first, last, [&](std::int64_t off, std::uint64_t sz) {
    NETDDT_CHECK(off >= 0 &&
                     static_cast<std::uint64_t>(off) + sz <= dest_.size(),
                 "Unpacker::unpack: destination " +
                     outside(off, sz, dest_.size()));
    std::memcpy(dest_.data() + off, in.data() + consumed, sz);
    consumed += sz;
  });
  NETDDT_CHECK(consumed == in.size(),
               "Unpacker::unpack: scattered " + std::to_string(consumed) +
                   " of a " + std::to_string(in.size()) + "-byte chunk");
}

}  // namespace netddt::dataloop
