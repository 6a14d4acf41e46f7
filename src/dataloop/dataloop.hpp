#pragma once
// Dataloop representation of derived datatypes (re-implementation of the
// MPITypes / MPICH dataloop engine the paper builds its general handlers
// on, cf. paper Sec 3.2.4 and Ross et al. [25,26]).
//
// A datatype compiles into a small tree of *dataloops*: contig, vector,
// blockindexed, indexed and struct nodes. A dataloop whose child covers a
// gap-free byte range is a *leaf*: its blocks are plain byte runs and are
// emitted directly (the "specialized leaf functions" of MPITypes). The
// compiled form is position-independent — all offsets are relative to the
// receive-buffer base — so one compiled dataloop serves any buffer, which
// is exactly why checkpoints amortize across receives (paper Fig 18).

#include <cstdint>
#include <memory>
#include <vector>

#include "ddt/datatype.hpp"

namespace netddt::dataloop {

enum class LoopKind : std::uint8_t {
  kContig,
  kVector,
  kBlockIndexed,
  kIndexed,
  kStruct,
};

struct Dataloop;

/// One member of a struct dataloop.
struct StructMember {
  std::int64_t displ = 0;       // byte displacement of the member
  std::int64_t blocklen = 0;    // repetitions of the child
  std::int64_t child_extent = 0;
  const Dataloop* child = nullptr;
};

struct Dataloop {
  LoopKind kind = LoopKind::kContig;
  bool leaf = false;  // blocks are raw byte runs (no child descent)

  // Shape parameters; which fields are meaningful depends on kind/leaf:
  //   contig        : count (non-leaf), block_bytes (leaf: single block)
  //   vector        : count, stride; leaf: block_bytes, else blocklen
  //   blockindexed  : displs; leaf: block_bytes, else blocklen
  //   indexed       : displs; leaf: block_bytes_list, else blocklens
  //   struct        : members
  std::int64_t count = 0;
  std::int64_t blocklen = 0;
  std::int64_t stride = 0;            // bytes
  std::uint64_t block_bytes = 0;      // bytes per (leaf) block
  std::vector<std::int64_t> displs;   // bytes
  std::vector<std::int64_t> blocklens;
  std::vector<std::uint64_t> block_bytes_list;    // indexed leaf
  std::vector<std::uint64_t> stream_prefix;       // indexed leaf: prefix sums
  std::uint32_t prefix_search_steps = 0;  // ddt::search_steps(stream_prefix)
  std::vector<StructMember> members;

  const Dataloop* child = nullptr;    // non-leaf, non-struct
  std::int64_t child_extent = 0;

  std::uint64_t size = 0;   // data bytes of one instance of this loop
  std::int64_t extent = 0;  // extent of one instance

  /// Number of blocks this loop iterates over at its own level.
  std::int64_t block_count() const;
  /// Byte offset (relative to the loop base) and length of block `i`
  /// (leaf loops only).
  std::int64_t leaf_block_offset(std::int64_t i) const;
  std::uint64_t leaf_block_bytes(std::int64_t i) const;

  /// Serialized footprint in bytes: what the host must copy into NIC
  /// memory to make this loop (and children) available to handlers.
  std::uint64_t serialized_bytes() const;
};

/// A compiled datatype: owns the dataloop nodes and root metadata.
class CompiledDataloop {
 public:
  /// Compile `type` (normalized internally) for `count` instances.
  CompiledDataloop(ddt::TypePtr type, std::uint64_t count = 1);

  const Dataloop& root() const { return *root_; }
  std::uint64_t count() const { return count_; }
  std::int64_t root_extent() const { return root_extent_; }
  /// Total packed bytes across all instances.
  std::uint64_t total_bytes() const { return root_->size * count_; }
  /// Maximum descent depth (bounds the Segment stack).
  std::uint32_t depth() const { return depth_; }
  /// Serialized size of the whole loop tree (NIC-memory cost of
  /// offloading the datatype description, paper Fig 16 annotations).
  std::uint64_t serialized_bytes() const;
  const ddt::TypePtr& type() const { return type_; }

 private:
  const Dataloop* compile(const ddt::TypePtr& t, std::uint32_t depth);
  Dataloop* fresh();

  ddt::TypePtr type_;
  std::uint64_t count_ = 1;
  std::int64_t root_extent_ = 0;
  std::uint32_t depth_ = 0;
  std::vector<std::unique_ptr<Dataloop>> pool_;
  const Dataloop* root_ = nullptr;
};

}  // namespace netddt::dataloop
