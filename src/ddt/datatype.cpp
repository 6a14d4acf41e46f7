#include "ddt/datatype.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>

#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace netddt::ddt {

void merge_adjacent(std::vector<Region>& regions) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const Region& r = regions[i];
    if (r.size == 0) continue;
    if (out > 0 && regions[out - 1].offset +
                           static_cast<std::int64_t>(regions[out - 1].size) ==
                       r.offset) {
      regions[out - 1].size += r.size;
    } else {
      regions[out++] = r;
    }
  }
  regions.resize(out);
}

std::uint64_t total_bytes(const std::vector<Region>& regions) {
  return std::accumulate(regions.begin(), regions.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const Region& r) {
                           return acc + r.size;
                         });
}

RegionList::RegionList(std::vector<Region> regions)
    : regions_(std::move(regions)) {
  prefix_.reserve(regions_.size() + 1);
  std::uint64_t at = 0;
  for (const Region& r : regions_) {
    prefix_.push_back(at);
    at += r.size;
  }
  prefix_.push_back(at);
  search_steps_ = ddt::search_steps(prefix_.size());
}

namespace {

/// Min/max typemap displacement contributions of `n` items spaced `step`
/// bytes apart (handles negative steps and n == 0).
struct SpanBounds {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

SpanBounds span_of(std::int64_t n, std::int64_t step) {
  if (n <= 1) return {0, 0};
  const std::int64_t reach = (n - 1) * step;
  return {std::min<std::int64_t>(0, reach), std::max<std::int64_t>(0, reach)};
}

}  // namespace

std::shared_ptr<Datatype> Datatype::make(Kind kind) {
  // Not make_shared: the constructor is private.
  auto t = std::shared_ptr<Datatype>(new Datatype());
  t->kind_ = kind;
  return t;
}

void Datatype::finalize() {
  const std::uint64_t elementary_size = size_;  // set by elementary()
  size_ = 0;
  block_count_ = 0;
  dense_ = false;
  bool any = false;
  std::int64_t lo = 0, hi = 0, tlo = 0, thi = 0;

  // Fold one member's bounds into the running lb/ub and true bounds.
  auto fold = [&](std::int64_t disp_lo, std::int64_t disp_hi,
                  const Datatype& c) {
    if (!any) {
      lo = disp_lo + c.lb();
      hi = disp_hi + c.ub();
      tlo = disp_lo + c.true_lb();
      thi = disp_hi + c.true_ub();
      any = true;
      return;
    }
    lo = std::min(lo, disp_lo + c.lb());
    hi = std::max(hi, disp_hi + c.ub());
    tlo = std::min(tlo, disp_lo + c.true_lb());
    thi = std::max(thi, disp_hi + c.true_ub());
  };

  switch (kind_) {
    case Kind::kElementary:
      size_ = elementary_size;
      lo = tlo = 0;
      hi = thi = static_cast<std::int64_t>(size_);
      any = true;
      block_count_ = size_ > 0 ? 1 : 0;
      dense_ = true;
      break;

    case Kind::kContiguous: {
      const Datatype& c = *children_[0];
      size_ = static_cast<std::uint64_t>(count_) * c.size();
      if (count_ > 0) {
        const auto reps = span_of(count_, c.extent());
        fold(reps.lo, reps.hi, c);
      }
      dense_ = c.is_dense();
      block_count_ = dense_ ? (size_ > 0 ? 1 : 0)
                            : static_cast<std::uint64_t>(count_) *
                                  c.block_count();
      break;
    }

    case Kind::kVector: {
      const Datatype& c = *children_[0];
      size_ = static_cast<std::uint64_t>(count_) *
              static_cast<std::uint64_t>(blocklen_) * c.size();
      if (count_ > 0 && blocklen_ > 0) {
        const auto blocks = span_of(count_, stride_bytes_);
        const auto inner = span_of(blocklen_, c.extent());
        fold(blocks.lo + inner.lo, blocks.hi + inner.hi, c);
      }
      dense_ = c.is_dense() &&
               (count_ <= 1 ||
                stride_bytes_ == blocklen_ * c.extent());
      if (dense_) {
        block_count_ = size_ > 0 ? 1 : 0;
      } else {
        const std::uint64_t per_block =
            c.is_dense() ? 1
                         : static_cast<std::uint64_t>(blocklen_) *
                               c.block_count();
        block_count_ = static_cast<std::uint64_t>(count_) * per_block;
      }
      break;
    }

    case Kind::kIndexedBlock: {
      const Datatype& c = *children_[0];
      size_ = displs_.size() * static_cast<std::uint64_t>(blocklen_) *
              c.size();
      const auto inner = span_of(blocklen_, c.extent());
      for (std::int64_t d : displs_) {
        if (blocklen_ > 0) fold(d + inner.lo, d + inner.hi, c);
      }
      const std::uint64_t per_block =
          c.is_dense() ? 1
                       : static_cast<std::uint64_t>(blocklen_) *
                             c.block_count();
      block_count_ = displs_.size() * per_block;
      break;
    }

    case Kind::kIndexed: {
      const Datatype& c = *children_[0];
      for (std::size_t i = 0; i < displs_.size(); ++i) {
        const std::int64_t bl = blocklens_[i];
        size_ += static_cast<std::uint64_t>(bl) * c.size();
        if (bl > 0) {
          const auto inner = span_of(bl, c.extent());
          fold(displs_[i] + inner.lo, displs_[i] + inner.hi, c);
          block_count_ += c.is_dense()
                              ? 1
                              : static_cast<std::uint64_t>(bl) *
                                    c.block_count();
        }
      }
      break;
    }

    case Kind::kStruct: {
      for (std::size_t i = 0; i < children_.size(); ++i) {
        const Datatype& c = *children_[i];
        const std::int64_t bl = blocklens_[i];
        size_ += static_cast<std::uint64_t>(bl) * c.size();
        if (bl > 0 && c.size() + static_cast<std::uint64_t>(c.extent()) > 0) {
          const auto inner = span_of(bl, c.extent());
          fold(displs_[i] + inner.lo, displs_[i] + inner.hi, c);
        }
        block_count_ += c.is_dense()
                            ? (bl > 0 && c.size() > 0 ? 1 : 0)
                            : static_cast<std::uint64_t>(bl) *
                                  c.block_count();
      }
      break;
    }

    case Kind::kResized: {
      const Datatype& c = *children_[0];
      size_ = c.size();
      tlo = c.true_lb();
      thi = c.true_ub();
      any = true;  // lb_/ub_ already set by the factory
      block_count_ = c.block_count();
      dense_ = c.is_dense() && lb_ == c.lb() && ub_ == c.ub();
      break;
    }
  }

  if (!any) {
    lo = hi = tlo = thi = 0;
    dense_ = true;  // an empty type is trivially gap-free
  }
  if (!resized_override_) {
    lb_ = lo;
    ub_ = hi;
  }
  true_lb_ = tlo;
  true_ub_ = thi;
  assert(ub_ >= lb_ || size_ == 0);

  // One SplitMix64 step per field keeps the hash order-sensitive; the
  // vector lengths go in too, so adjacent fields cannot alias.
  std::uint64_t h = 0;
  const auto add = [&h](auto v) {
    h = sim::splitmix64(h ^ static_cast<std::uint64_t>(v));
  };
  add(kind_);
  add(size_);
  add(lb_);
  add(ub_);
  add(count_);
  add(blocklen_);
  add(stride_bytes_);
  add(blocklens_.size());
  for (std::int64_t v : blocklens_) add(v);
  add(displs_.size());
  for (std::int64_t v : displs_) add(v);
  add(children_.size());
  for (const TypePtr& c : children_) add(c->fingerprint());
  fingerprint_ = h;
}

bool same_structure(const Datatype& a, const Datatype& b) {
  if (&a == &b) return true;
  if (a.fingerprint() != b.fingerprint() || a.kind() != b.kind() ||
      a.size() != b.size() || a.lb() != b.lb() || a.ub() != b.ub() ||
      a.count() != b.count() || a.blocklen() != b.blocklen() ||
      a.stride_bytes() != b.stride_bytes() ||
      !std::ranges::equal(a.blocklens(), b.blocklens()) ||
      !std::ranges::equal(a.displs_bytes(), b.displs_bytes()) ||
      a.children().size() != b.children().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.children().size(); ++i) {
    if (!same_structure(*a.children()[i], *b.children()[i])) return false;
  }
  return true;
}

void Datatype::for_each_region(std::int64_t base, const RegionFn& fn) const {
  if (size_ == 0) return;
  if (dense_) {
    fn(base + lb_, size_);
    return;
  }
  switch (kind_) {
    case Kind::kElementary:
      fn(base, size_);
      break;
    case Kind::kContiguous: {
      const Datatype& c = *children_[0];
      for (std::int64_t i = 0; i < count_; ++i) {
        c.for_each_region(base + i * c.extent(), fn);
      }
      break;
    }
    case Kind::kVector: {
      const Datatype& c = *children_[0];
      for (std::int64_t i = 0; i < count_; ++i) {
        const std::int64_t block = base + i * stride_bytes_;
        if (c.is_dense()) {
          fn(block, static_cast<std::uint64_t>(blocklen_) * c.size());
        } else {
          for (std::int64_t j = 0; j < blocklen_; ++j) {
            c.for_each_region(block + j * c.extent(), fn);
          }
        }
      }
      break;
    }
    case Kind::kIndexedBlock: {
      const Datatype& c = *children_[0];
      for (std::int64_t d : displs_) {
        const std::int64_t block = base + d;
        if (c.is_dense()) {
          fn(block, static_cast<std::uint64_t>(blocklen_) * c.size());
        } else {
          for (std::int64_t j = 0; j < blocklen_; ++j) {
            c.for_each_region(block + j * c.extent(), fn);
          }
        }
      }
      break;
    }
    case Kind::kIndexed: {
      const Datatype& c = *children_[0];
      for (std::size_t i = 0; i < displs_.size(); ++i) {
        const std::int64_t block = base + displs_[i];
        const std::int64_t bl = blocklens_[i];
        if (bl == 0) continue;
        if (c.is_dense()) {
          fn(block, static_cast<std::uint64_t>(bl) * c.size());
        } else {
          for (std::int64_t j = 0; j < bl; ++j) {
            c.for_each_region(block + j * c.extent(), fn);
          }
        }
      }
      break;
    }
    case Kind::kStruct: {
      for (std::size_t i = 0; i < children_.size(); ++i) {
        const Datatype& c = *children_[i];
        const std::int64_t bl = blocklens_[i];
        if (bl == 0 || c.size() == 0) continue;
        const std::int64_t block = base + displs_[i];
        if (c.is_dense()) {
          fn(block, static_cast<std::uint64_t>(bl) * c.size());
        } else {
          for (std::int64_t j = 0; j < bl; ++j) {
            c.for_each_region(block + j * c.extent(), fn);
          }
        }
      }
      break;
    }
    case Kind::kResized:
      children_[0]->for_each_region(base, fn);
      break;
  }
}

std::vector<Region> Datatype::flatten(std::uint64_t count) const {
  std::vector<Region> out;
  out.reserve(block_count_ * count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t base = static_cast<std::int64_t>(i) * extent();
    for_each_region(base, [&out](std::int64_t off, std::uint64_t sz) {
      out.push_back(Region{off, sz});
    });
  }
  merge_adjacent(out);
  return out;
}

RegionList Datatype::region_list(std::uint64_t count) const {
  return RegionList(flatten(count));
}

const RegionFacts& Datatype::region_facts() const {
  std::call_once(facts_once_, [this] {
    facts_.regions = flatten(1);
    const auto& r = facts_.regions;
    facts_.instances_join =
        !r.empty() && r.back().offset + static_cast<std::int64_t>(
                                            r.back().size) ==
                          r.front().offset + extent();
  });
  return facts_;
}

std::uint64_t Datatype::region_count(std::uint64_t count) const {
  const RegionFacts& f = region_facts();
  if (count == 0 || f.regions.empty()) return 0;
  return count * f.regions.size() - (count - 1) * (f.instances_join ? 1 : 0);
}

std::string_view Datatype::kind_name() const {
  switch (kind_) {
    case Kind::kElementary: return "elementary";
    case Kind::kContiguous: return "contiguous";
    case Kind::kVector: return "vector";
    case Kind::kIndexedBlock: return "indexed_block";
    case Kind::kIndexed: return "indexed";
    case Kind::kStruct: return "struct";
    case Kind::kResized: return "resized";
  }
  return "?";
}

std::string Datatype::to_string() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kElementary:
      os << name_;
      break;
    case Kind::kContiguous:
      os << "contiguous(" << count_ << "," << children_[0]->to_string() << ")";
      break;
    case Kind::kVector:
      os << "hvector(" << count_ << "," << blocklen_ << "," << stride_bytes_
         << "B," << children_[0]->to_string() << ")";
      break;
    case Kind::kIndexedBlock:
      os << "indexed_block(" << displs_.size() << "x" << blocklen_ << ","
         << children_[0]->to_string() << ")";
      break;
    case Kind::kIndexed:
      os << "indexed(" << displs_.size() << "," << children_[0]->to_string()
         << ")";
      break;
    case Kind::kStruct: {
      os << "struct(";
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i) os << ",";
        os << blocklens_[i] << "x" << children_[i]->to_string() << "@"
           << displs_[i];
      }
      os << ")";
      break;
    }
    case Kind::kResized:
      os << "resized(" << children_[0]->to_string() << ",lb=" << lb_
         << ",ext=" << extent() << ")";
      break;
  }
  return os.str();
}

// --- Factories -----------------------------------------------------------

TypePtr Datatype::elementary(std::uint64_t size, std::string name) {
  auto t = make(Kind::kElementary);
  t->size_ = size;
  t->name_ = std::move(name);
  t->finalize();
  return t;
}

TypePtr Datatype::contiguous(std::int64_t count, TypePtr base) {
  NETDDT_CHECK(base, "contiguous: null base type");
  NETDDT_CHECK(count >= 0, "contiguous: count " + std::to_string(count));
  auto t = make(Kind::kContiguous);
  t->count_ = count;
  t->children_.push_back(std::move(base));
  t->finalize();
  return t;
}

TypePtr Datatype::vector(std::int64_t count, std::int64_t blocklen,
                         std::int64_t stride, TypePtr base) {
  NETDDT_CHECK(base, "vector: null base type");
  const std::int64_t stride_bytes = stride * base->extent();
  return hvector(count, blocklen, stride_bytes, std::move(base));
}

TypePtr Datatype::hvector(std::int64_t count, std::int64_t blocklen,
                          std::int64_t stride_bytes, TypePtr base) {
  NETDDT_CHECK(base, "hvector: null base type");
  NETDDT_CHECK(count >= 0 && blocklen >= 0,
               "hvector: count " + std::to_string(count) + ", blocklen " +
                   std::to_string(blocklen));
  auto t = make(Kind::kVector);
  t->count_ = count;
  t->blocklen_ = blocklen;
  t->stride_bytes_ = stride_bytes;
  t->children_.push_back(std::move(base));
  t->finalize();
  return t;
}

TypePtr Datatype::indexed_block(std::int64_t blocklen,
                                std::span<const std::int64_t> displs,
                                TypePtr base) {
  NETDDT_CHECK(base, "indexed_block: null base type");
  std::vector<std::int64_t> bytes(displs.begin(), displs.end());
  for (auto& d : bytes) d *= base->extent();
  return hindexed_block(blocklen, bytes, std::move(base));
}

TypePtr Datatype::hindexed_block(std::int64_t blocklen,
                                 std::span<const std::int64_t> displs_bytes,
                                 TypePtr base) {
  NETDDT_CHECK(base, "hindexed_block: null base type");
  NETDDT_CHECK(blocklen >= 0,
               "hindexed_block: blocklen " + std::to_string(blocklen));
  auto t = make(Kind::kIndexedBlock);
  t->blocklen_ = blocklen;
  t->displs_.assign(displs_bytes.begin(), displs_bytes.end());
  t->children_.push_back(std::move(base));
  t->finalize();
  return t;
}

TypePtr Datatype::indexed(std::span<const std::int64_t> blocklens,
                          std::span<const std::int64_t> displs,
                          TypePtr base) {
  NETDDT_CHECK(base, "indexed: null base type");
  std::vector<std::int64_t> bytes(displs.begin(), displs.end());
  for (auto& d : bytes) d *= base->extent();
  return hindexed(blocklens, bytes, std::move(base));
}

TypePtr Datatype::hindexed(std::span<const std::int64_t> blocklens,
                           std::span<const std::int64_t> displs_bytes,
                           TypePtr base) {
  NETDDT_CHECK(base, "hindexed: null base type");
  NETDDT_CHECK(blocklens.size() == displs_bytes.size(),
               "hindexed: " + std::to_string(blocklens.size()) +
                   " blocklens for " + std::to_string(displs_bytes.size()) +
                   " displacements");
  auto t = make(Kind::kIndexed);
  t->blocklens_.assign(blocklens.begin(), blocklens.end());
  t->displs_.assign(displs_bytes.begin(), displs_bytes.end());
  t->children_.push_back(std::move(base));
  t->finalize();
  return t;
}

TypePtr Datatype::struct_type(std::span<const std::int64_t> blocklens,
                              std::span<const std::int64_t> displs_bytes,
                              std::span<const TypePtr> types) {
  NETDDT_CHECK(blocklens.size() == displs_bytes.size() &&
                   blocklens.size() == types.size(),
               "struct_type: " + std::to_string(blocklens.size()) +
                   " blocklens, " + std::to_string(displs_bytes.size()) +
                   " displacements, " + std::to_string(types.size()) +
                   " types");
  for (const TypePtr& child : types) {
    NETDDT_CHECK(child, "struct_type: null member type");
  }
  auto t = make(Kind::kStruct);
  t->blocklens_.assign(blocklens.begin(), blocklens.end());
  t->displs_.assign(displs_bytes.begin(), displs_bytes.end());
  t->children_.assign(types.begin(), types.end());
  t->finalize();
  return t;
}

TypePtr Datatype::subarray(std::span<const std::int64_t> sizes,
                           std::span<const std::int64_t> subsizes,
                           std::span<const std::int64_t> starts, TypePtr base,
                           bool c_order) {
  const std::size_t ndims = sizes.size();
  NETDDT_CHECK(base, "subarray: null base type");
  NETDDT_CHECK(ndims > 0 && subsizes.size() == ndims && starts.size() == ndims,
               "subarray: " + std::to_string(ndims) + " sizes, " +
                   std::to_string(subsizes.size()) + " subsizes, " +
                   std::to_string(starts.size()) + " starts");

  // Normalize to C order: dims[0] is outermost, dims[ndims-1] contiguous.
  std::vector<std::size_t> dims(ndims);
  for (std::size_t i = 0; i < ndims; ++i) {
    dims[i] = c_order ? i : ndims - 1 - i;
  }

  const std::int64_t elem_ext = base->extent();
  // row_ext[k] = bytes covered by one index step in normalized dim k.
  std::vector<std::int64_t> row_ext(ndims);
  std::int64_t acc = elem_ext;
  for (std::size_t k = ndims; k-- > 0;) {
    row_ext[k] = acc;
    acc *= sizes[dims[k]];
  }
  const std::int64_t full_extent = acc;

  std::int64_t start_off = 0;
  for (std::size_t k = 0; k < ndims; ++k) {
    const std::size_t d = dims[k];
    NETDDT_CHECK(subsizes[d] >= 0 && starts[d] >= 0 &&
                     starts[d] + subsizes[d] <= sizes[d],
                 "subarray: dim " + std::to_string(d) + " start " +
                     std::to_string(starts[d]) + " + subsize " +
                     std::to_string(subsizes[d]) + " outside size " +
                     std::to_string(sizes[d]));
    start_off += starts[d] * row_ext[k];
  }

  TypePtr t = contiguous(subsizes[dims[ndims - 1]], std::move(base));
  for (std::size_t k = ndims - 1; k-- > 0;) {
    t = hvector(subsizes[dims[k]], 1, row_ext[k], std::move(t));
  }
  const std::int64_t one = 1;
  t = hindexed(std::span(&one, 1), std::span(&start_off, 1), std::move(t));
  return resized(std::move(t), 0, full_extent);
}

TypePtr Datatype::resized(TypePtr base, std::int64_t lb,
                          std::int64_t extent) {
  NETDDT_CHECK(base, "resized: null base type");
  NETDDT_CHECK(extent >= 0, "resized: extent " + std::to_string(extent));
  auto t = make(Kind::kResized);
  t->lb_ = lb;
  t->ub_ = lb + extent;
  t->resized_override_ = true;
  t->children_.push_back(std::move(base));
  t->finalize();
  return t;
}

namespace {
TypePtr make_predefined(std::uint64_t size, const char* name) {
  return Datatype::elementary(size, name);
}
}  // namespace

TypePtr Datatype::int8() {
  static const TypePtr t = make_predefined(1, "int8");
  return t;
}
TypePtr Datatype::int32() {
  static const TypePtr t = make_predefined(4, "int32");
  return t;
}
TypePtr Datatype::int64() {
  static const TypePtr t = make_predefined(8, "int64");
  return t;
}
TypePtr Datatype::float32() {
  static const TypePtr t = make_predefined(4, "float32");
  return t;
}
TypePtr Datatype::float64() {
  static const TypePtr t = make_predefined(8, "float64");
  return t;
}

}  // namespace netddt::ddt
