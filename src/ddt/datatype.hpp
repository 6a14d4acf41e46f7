#pragma once
// MPI-style derived datatypes.
//
// A Datatype is an immutable description of a (possibly non-contiguous)
// memory layout: a mapping from positions in a packed byte stream to byte
// offsets in a user buffer. The constructor set mirrors MPI's:
// elementary types, contiguous, vector/hvector, indexed_block/
// hindexed_block, indexed/hindexed, struct, subarray and resized.
//
// Internal conventions:
//  - All displacements and strides are stored in BYTES. The element-based
//    MPI variants (vector, indexed, ...) are converted at construction
//    using the base type's extent, exactly as MPI specifies.
//  - Types are immutable and shared (shared_ptr<const Datatype>), so type
//    trees may be reused freely across layouts and threads.
//
// Commit-time facts. Like MPI_Type_commit, each type computes the facts
// that depend on it alone once, so per-message code reads them instead
// of re-walking the tree:
//  - fingerprint(): a 64-bit structural hash taken at construction from
//    the type's own fields plus its children's fingerprints. It keys the
//    dataloop/plan cache (dataloop/cache.hpp); same_structure() confirms
//    a match field for field.
//  - region_facts(): the merged regions of one instance and whether
//    consecutive instances join, computed on first use behind a
//    once-guard (sweep threads share types). region_count(count) gives
//    flatten(count).size() from them, and the host-unpack model
//    (offload/host_model.hpp) walks them instead of flattening.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ddt/region.hpp"

namespace netddt::ddt {

class Datatype;
using TypePtr = std::shared_ptr<const Datatype>;

enum class Kind {
  kElementary,
  kContiguous,
  kVector,        // stored with byte stride (covers hvector too)
  kIndexedBlock,  // stored with byte displacements (covers hindexed_block)
  kIndexed,       // stored with byte displacements (covers hindexed)
  kStruct,
  kResized,
};

/// Region facts of one instance, computed once per type (see
/// Datatype::region_facts()).
struct RegionFacts {
  /// flatten(1): the merged regions of one instance, in type-map order.
  std::vector<Region> regions;
  /// True when an instance's last region ends exactly where the next
  /// instance's first region starts, so flatten(count) merges the two.
  bool instances_join = false;
};

/// Visitor over the contiguous regions of one instance of a type, in
/// type-map (packed stream) order.
using RegionFn = std::function<void(std::int64_t offset, std::uint64_t size)>;

class Datatype {
 public:
  Kind kind() const { return kind_; }

  /// Number of data bytes in one instance (the packed size).
  std::uint64_t size() const { return size_; }

  /// MPI lower bound / upper bound / extent in bytes.
  std::int64_t lb() const { return lb_; }
  std::int64_t ub() const { return ub_; }
  std::int64_t extent() const { return ub_ - lb_; }

  /// Bounds of the actual data (ignoring resized-type padding).
  std::int64_t true_lb() const { return true_lb_; }
  std::int64_t true_ub() const { return true_ub_; }
  std::int64_t true_extent() const { return true_ub_ - true_lb_; }

  /// Number of leaf-level contiguous blocks in one instance, counting a
  /// dense subtree as a single block. An upper bound on the merged region
  /// count (adjacent blocks may still coalesce).
  std::uint64_t block_count() const { return block_count_; }

  /// True when one instance is a single gap-free region starting at
  /// offset 0 with size() == extent().
  bool is_dense() const { return dense_; }

  /// Walk the contiguous regions of one instance, offsets relative to
  /// `base` (pass 0 for buffer-relative offsets).
  void for_each_region(std::int64_t base, const RegionFn& fn) const;

  /// Materialize `count` repetitions (each shifted by extent()) as a
  /// merged region list in type-map order.
  std::vector<Region> flatten(std::uint64_t count = 1) const;

  /// flatten(count) with its stream-prefix sums: the list every
  /// region-list walker (offload handlers, outbound gather) builds from.
  RegionList region_list(std::uint64_t count) const;

  /// Structural fingerprint, fixed at construction: a hash of kind(),
  /// size(), lb(), ub(), count(), blocklen(), stride_bytes(), blocklens(),
  /// displs_bytes() and the children's fingerprints. Elementary names are
  /// not covered (int32 and float32 share a layout). Equal structure
  /// implies equal fingerprints; the converse needs same_structure().
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// The type's region facts, computed on the first call (thread-safe)
  /// and shared by every later one.
  const RegionFacts& region_facts() const;

  /// flatten(count).size() without building the list:
  /// count * r - (count - 1) * join, from region_facts().
  std::uint64_t region_count(std::uint64_t count) const;

  /// Human-readable type tree (one line), e.g. "vector(4,2,16,float64)".
  std::string to_string() const;

  /// A short constructor name: "vector", "indexed", ...
  std::string_view kind_name() const;

  // Structural parameter accessors (meaning depends on kind()).
  std::int64_t count() const { return count_; }
  std::int64_t blocklen() const { return blocklen_; }
  std::int64_t stride_bytes() const { return stride_bytes_; }
  std::span<const std::int64_t> blocklens() const { return blocklens_; }
  std::span<const std::int64_t> displs_bytes() const { return displs_; }
  std::span<const TypePtr> children() const { return children_; }
  const TypePtr& child(std::size_t i = 0) const { return children_.at(i); }
  const std::string& name() const { return name_; }

  // --- Factories -------------------------------------------------------

  /// Elementary (predefined) type of `size` bytes.
  static TypePtr elementary(std::uint64_t size, std::string name);

  static TypePtr contiguous(std::int64_t count, TypePtr base);

  /// MPI_Type_vector: stride in multiples of base extent.
  static TypePtr vector(std::int64_t count, std::int64_t blocklen,
                        std::int64_t stride, TypePtr base);

  /// MPI_Type_create_hvector: stride in bytes.
  static TypePtr hvector(std::int64_t count, std::int64_t blocklen,
                         std::int64_t stride_bytes, TypePtr base);

  /// MPI_Type_create_indexed_block: displacements in multiples of extent.
  static TypePtr indexed_block(std::int64_t blocklen,
                               std::span<const std::int64_t> displs,
                               TypePtr base);

  /// MPI_Type_create_hindexed_block: displacements in bytes.
  static TypePtr hindexed_block(std::int64_t blocklen,
                                std::span<const std::int64_t> displs_bytes,
                                TypePtr base);

  /// MPI_Type_indexed: block lengths + displacements in extents.
  static TypePtr indexed(std::span<const std::int64_t> blocklens,
                         std::span<const std::int64_t> displs, TypePtr base);

  /// MPI_Type_create_hindexed: displacements in bytes.
  static TypePtr hindexed(std::span<const std::int64_t> blocklens,
                          std::span<const std::int64_t> displs_bytes,
                          TypePtr base);

  /// MPI_Type_create_struct.
  static TypePtr struct_type(std::span<const std::int64_t> blocklens,
                             std::span<const std::int64_t> displs_bytes,
                             std::span<const TypePtr> types);

  /// MPI_Type_create_subarray (order: true = C/row-major, false = Fortran).
  /// Desugared at construction into nested hvectors placed at the start
  /// offset and resized to the full-array extent, which is the layout MPI
  /// mandates.
  static TypePtr subarray(std::span<const std::int64_t> sizes,
                          std::span<const std::int64_t> subsizes,
                          std::span<const std::int64_t> starts, TypePtr base,
                          bool c_order = true);

  /// MPI_Type_create_resized.
  static TypePtr resized(TypePtr base, std::int64_t lb, std::int64_t extent);

  // Predefined elementary types.
  static TypePtr int8();
  static TypePtr int32();
  static TypePtr int64();
  static TypePtr float32();
  static TypePtr float64();

 private:
  Datatype() = default;
  static std::shared_ptr<Datatype> make(Kind kind);
  // Compute size/lb/ub/true bounds/block_count/dense and the
  // fingerprint.
  void finalize();

  Kind kind_ = Kind::kElementary;
  std::uint64_t size_ = 0;
  std::int64_t lb_ = 0, ub_ = 0;
  std::int64_t true_lb_ = 0, true_ub_ = 0;
  std::uint64_t block_count_ = 0;
  bool dense_ = false;
  bool resized_override_ = false;  // lb_/ub_ fixed by resized()

  std::int64_t count_ = 0;
  std::int64_t blocklen_ = 0;
  std::int64_t stride_bytes_ = 0;
  std::vector<std::int64_t> blocklens_;
  std::vector<std::int64_t> displs_;
  std::vector<TypePtr> children_;
  std::string name_;
  std::uint64_t fingerprint_ = 0;

  mutable std::once_flag facts_once_;
  mutable RegionFacts facts_;
};

/// True when `a` and `b` agree on every field fingerprint() covers, all
/// the way down the tree: such types are interchangeable layouts. Returns
/// at once when both are the same object or their fingerprints differ.
bool same_structure(const Datatype& a, const Datatype& b);

}  // namespace netddt::ddt
