#include "dataloop/dataloop.hpp"

#include <string>

#include "ddt/normalize.hpp"
#include "sim/check.hpp"

namespace netddt::dataloop {

namespace {

/// Checked before normalize() dereferences it.
const ddt::TypePtr& non_null(const ddt::TypePtr& type) {
  NETDDT_CHECK(type != nullptr, "cannot compile a null datatype");
  return type;
}

}  // namespace

std::int64_t Dataloop::block_count() const {
  switch (kind) {
    case LoopKind::kContig:
      return leaf ? 1 : count;
    case LoopKind::kVector:
      return count;
    case LoopKind::kBlockIndexed:
    case LoopKind::kIndexed:
      return static_cast<std::int64_t>(displs.size());
    case LoopKind::kStruct:
      return static_cast<std::int64_t>(members.size());
  }
  return 0;
}

std::int64_t Dataloop::leaf_block_offset(std::int64_t i) const {
  NETDDT_CHECK(leaf, "block offset asked of a non-leaf dataloop");
  switch (kind) {
    case LoopKind::kContig:
      return 0;
    case LoopKind::kVector:
      return i * stride;
    case LoopKind::kBlockIndexed:
    case LoopKind::kIndexed:
      NETDDT_CHECK(i >= 0 &&
                       static_cast<std::size_t>(i) < displs.size(),
                   "leaf block index " + std::to_string(i) +
                       " outside the displacement list of " +
                       std::to_string(displs.size()) + " entries");
      return displs[static_cast<std::size_t>(i)];
    case LoopKind::kStruct:
      break;
  }
  NETDDT_CHECK(kind != LoopKind::kStruct, "struct loops are never leaves");
  return 0;
}

std::uint64_t Dataloop::leaf_block_bytes(std::int64_t i) const {
  NETDDT_CHECK(leaf, "block size asked of a non-leaf dataloop");
  if (kind == LoopKind::kIndexed) {
    NETDDT_CHECK(i >= 0 && static_cast<std::size_t>(i) <
                               block_bytes_list.size(),
                 "leaf block index " + std::to_string(i) +
                     " outside the size list of " +
                     std::to_string(block_bytes_list.size()) + " entries");
    return block_bytes_list[static_cast<std::size_t>(i)];
  }
  return block_bytes;
}

std::uint64_t Dataloop::serialized_bytes() const {
  // Header: kind/flags, counts, stride, sizes — modeled as 8 x 8 B words,
  // matching the MPICH dataloop struct layout.
  std::uint64_t bytes = 64;
  bytes += displs.size() * 8;
  bytes += blocklens.size() * 8;
  bytes += block_bytes_list.size() * 8;
  bytes += stream_prefix.size() * 8;
  bytes += members.size() * 32;
  for (const StructMember& m : members) {
    if (m.child != nullptr) bytes += m.child->serialized_bytes();
  }
  if (child != nullptr) bytes += child->serialized_bytes();
  return bytes;
}

CompiledDataloop::CompiledDataloop(ddt::TypePtr type, std::uint64_t count)
    : type_(ddt::normalize(non_null(type))), count_(count) {
  root_extent_ = type_->extent();
  if (type_->size() == 0) {
    // Zero-size datatype (zero-count loop, empty struct, ...): compile to
    // an empty contig leaf so total_bytes() == 0 and a Segment over it is
    // born finished. A 0-byte put then completes through the normal
    // completion path instead of hitting UB in release builds.
    Dataloop* dl = fresh();
    dl->kind = LoopKind::kContig;
    dl->leaf = true;
    dl->block_bytes = 0;
    dl->size = 0;
    dl->extent = root_extent_;
    depth_ = 1;
    root_ = dl;
    return;
  }
  root_ = compile(type_, 1);
}

Dataloop* CompiledDataloop::fresh() {
  pool_.push_back(std::make_unique<Dataloop>());
  return pool_.back().get();
}

std::uint64_t CompiledDataloop::serialized_bytes() const {
  return root_->serialized_bytes();
}

const Dataloop* CompiledDataloop::compile(const ddt::TypePtr& t,
                                          std::uint32_t depth) {
  depth_ = std::max(depth_, depth);

  // A resized wrapper only changes the extent: compile the child, then
  // expose it under the adjusted extent (parents read child extents from
  // the *type*, so only the root-level extent view matters here).
  if (t->kind() == ddt::Kind::kResized && !t->is_dense()) {
    const Dataloop* inner = compile(t->child(), depth);
    Dataloop* view = fresh();
    *view = *inner;  // shallow copy; children stay pool-owned
    view->extent = t->extent();
    return view;
  }

  Dataloop* dl = fresh();
  dl->size = t->size();
  dl->extent = t->extent();

  // Any gap-free subtree becomes a single contig leaf: this is the
  // MPITypes leaf optimization that keeps handler inner loops tight.
  if (t->is_dense()) {
    dl->kind = LoopKind::kContig;
    dl->leaf = true;
    dl->block_bytes = t->size();
    return dl;
  }

  switch (t->kind()) {
    case ddt::Kind::kElementary:
      // Elementary types are dense; handled above.
      NETDDT_CHECK(t->kind() != ddt::Kind::kElementary,
                   "non-dense elementary type reached the compiler");
      break;

    case ddt::Kind::kContiguous: {
      dl->kind = LoopKind::kContig;
      dl->count = t->count();
      dl->child_extent = t->child()->extent();
      dl->child = compile(t->child(), depth + 1);
      break;
    }

    case ddt::Kind::kVector: {
      dl->kind = LoopKind::kVector;
      dl->count = t->count();
      dl->stride = t->stride_bytes();
      if (t->child()->is_dense()) {
        dl->leaf = true;
        dl->block_bytes =
            static_cast<std::uint64_t>(t->blocklen()) * t->child()->size();
      } else {
        dl->blocklen = t->blocklen();
        dl->child_extent = t->child()->extent();
        dl->child = compile(t->child(), depth + 1);
      }
      break;
    }

    case ddt::Kind::kIndexedBlock: {
      dl->kind = LoopKind::kBlockIndexed;
      dl->displs.assign(t->displs_bytes().begin(), t->displs_bytes().end());
      if (t->child()->is_dense()) {
        dl->leaf = true;
        dl->block_bytes =
            static_cast<std::uint64_t>(t->blocklen()) * t->child()->size();
      } else {
        dl->blocklen = t->blocklen();
        dl->child_extent = t->child()->extent();
        dl->child = compile(t->child(), depth + 1);
      }
      break;
    }

    case ddt::Kind::kIndexed: {
      dl->kind = LoopKind::kIndexed;
      const auto blocklens = t->blocklens();
      const auto displs = t->displs_bytes();
      // Prune zero-length blocks: they carry no data and would break the
      // strictly-increasing stream prefix the catch-up search relies on.
      if (t->child()->is_dense()) {
        dl->leaf = true;
        std::uint64_t at = 0;
        for (std::size_t i = 0; i < blocklens.size(); ++i) {
          if (blocklens[i] == 0) continue;
          const auto bytes =
              static_cast<std::uint64_t>(blocklens[i]) * t->child()->size();
          dl->displs.push_back(displs[i]);
          dl->block_bytes_list.push_back(bytes);
          dl->stream_prefix.push_back(at);
          at += bytes;
        }
        dl->stream_prefix.push_back(at);
        dl->prefix_search_steps = ddt::search_steps(dl->stream_prefix.size());
      } else {
        for (std::size_t i = 0; i < blocklens.size(); ++i) {
          if (blocklens[i] == 0) continue;
          dl->displs.push_back(displs[i]);
          dl->blocklens.push_back(blocklens[i]);
        }
        dl->child_extent = t->child()->extent();
        dl->child = compile(t->child(), depth + 1);
      }
      break;
    }

    case ddt::Kind::kStruct: {
      dl->kind = LoopKind::kStruct;
      const auto types = t->children();
      const auto blocklens = t->blocklens();
      const auto displs = t->displs_bytes();
      dl->members.reserve(types.size());
      for (std::size_t i = 0; i < types.size(); ++i) {
        if (blocklens[i] == 0 || types[i]->size() == 0) continue;
        StructMember m;
        m.displ = displs[i];
        m.child_extent = types[i]->extent();
        if (types[i]->is_dense()) {
          // Fold dense members into a single-run child of bl * size bytes.
          m.blocklen = 1;
          Dataloop* leaf_child = fresh();
          leaf_child->kind = LoopKind::kContig;
          leaf_child->leaf = true;
          leaf_child->block_bytes =
              static_cast<std::uint64_t>(blocklens[i]) * types[i]->size();
          leaf_child->size = leaf_child->block_bytes;
          leaf_child->extent =
              static_cast<std::int64_t>(leaf_child->block_bytes);
          m.child_extent = leaf_child->extent;
          m.child = leaf_child;
          depth_ = std::max(depth_, depth + 1);
        } else {
          m.blocklen = blocklens[i];
          m.child = compile(types[i], depth + 1);
        }
        dl->members.push_back(m);
      }
      break;
    }

    case ddt::Kind::kResized:
      NETDDT_CHECK(t->kind() != ddt::Kind::kResized,
                   "resized wrapper reached the node allocator");
      break;
  }
  return dl;
}

}  // namespace netddt::dataloop
