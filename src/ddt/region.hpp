#pragma once
// Contiguous memory regions: the common currency between the datatype
// engine (which *describes* layouts), the dataloop engine (which walks
// them incrementally), and the NIC model (which DMAs them).

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace netddt::ddt {

/// One contiguous region of a (possibly non-contiguous) layout, expressed
/// as a byte offset relative to the buffer base plus a byte length.
struct Region {
  std::int64_t offset = 0;
  std::uint64_t size = 0;

  friend bool operator==(const Region&, const Region&) = default;
};

/// Merge adjacent regions in place: regions must be given in type-map
/// (packed-stream) order; consecutive entries where one ends exactly where
/// the next begins are coalesced. Zero-length regions are dropped.
void merge_adjacent(std::vector<Region>& regions);

/// Total bytes covered by a region list.
std::uint64_t total_bytes(const std::vector<Region>& regions);

/// Binary-search iterations over `entries` sorted keys: ceil(log2(entries))
/// for entries >= 1, computed in integers as bit_width(entries - 1); 0 for
/// an empty list.
constexpr std::uint32_t search_steps(std::uint64_t entries) {
  return entries == 0 ? 0
                      : static_cast<std::uint32_t>(std::bit_width(entries - 1));
}

/// A region list with its stream-prefix sums: the (offset, size) lists
/// the region-list handlers binary-search (paper Sec 3.2.3, "a modified
/// binary search on these lists"), the iovec comparator's entries (Sec
/// 5.3), the compute plan's accumulate mapping and the outbound gather
/// handler's source list. Datatype::region_list(count) builds one.
class RegionList {
 public:
  /// Holds nothing, not even the prefix's closing 0: a plan that never
  /// walks its list allocates nothing for it. (A live allocation per
  /// idle plan pinned the heap top and cost service_poisson ~1 MB of
  /// peak RSS.)
  RegionList() = default;
  explicit RegionList(std::vector<Region> regions);

  const std::vector<Region>& regions() const { return regions_; }
  /// prefix()[i] is region i's stream offset; prefix().back() the total.
  const std::vector<std::uint64_t>& prefix() const { return prefix_; }
  std::size_t size() const { return regions_.size(); }

  /// Binary-search iterations a handler charges to locate a window's
  /// first region: search_steps(prefix().size()).
  std::uint32_t search_steps() const { return search_steps_; }

  /// Map stream window [first, last) onto the regions, in stream order:
  /// fn(idx, host_off, stream_off, len) per piece of region idx, with
  /// stream_off absolute. Pieces at the window's ends may start or stop
  /// inside their region.
  template <typename Fn>
  void walk(std::uint64_t first, std::uint64_t last, Fn&& fn) const {
    const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), first);
    auto idx = static_cast<std::size_t>(it - prefix_.begin()) - 1;
    std::uint64_t pos = first;
    while (pos < last) {
      const Region& r = regions_[idx];
      const std::uint64_t rem = pos - prefix_[idx];
      const std::uint64_t take = std::min(r.size - rem, last - pos);
      fn(idx, r.offset + static_cast<std::int64_t>(rem), pos, take);
      pos += take;
      if (pos == prefix_[idx + 1]) ++idx;
    }
  }

 private:
  std::vector<Region> regions_;
  std::vector<std::uint64_t> prefix_;
  std::uint32_t search_steps_ = 0;
};

}  // namespace netddt::ddt
