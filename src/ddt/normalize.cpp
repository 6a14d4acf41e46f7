#include "ddt/normalize.hpp"

#include <algorithm>
#include <cassert>

namespace netddt::ddt {
namespace {

bool all_equal(std::span<const std::int64_t> xs) {
  return std::adjacent_find(xs.begin(), xs.end(),
                            std::not_equal_to<>()) == xs.end();
}

/// True when displacements form an arithmetic progression with step
/// `*step_out` (requires >= 2 entries).
bool uniform_stride(std::span<const std::int64_t> displs,
                    std::int64_t* step_out) {
  if (displs.size() < 2) return false;
  const std::int64_t step = displs[1] - displs[0];
  for (std::size_t i = 1; i + 1 < displs.size(); ++i) {
    if (displs[i + 1] - displs[i] != step) return false;
  }
  *step_out = step;
  return true;
}

TypePtr norm(const TypePtr& t);

TypePtr norm_contiguous(const TypePtr& t) {
  TypePtr c = norm(t->child());
  const std::int64_t n = t->count();
  if (n == 1) return c;
  // contiguous(n, contiguous(m, x)) == contiguous(n*m, x): the inner type
  // repeats at its own extent, which contiguous preserves.
  if (c->kind() == Kind::kContiguous) {
    return Datatype::contiguous(n * c->count(), c->child());
  }
  return Datatype::contiguous(n, std::move(c));
}

TypePtr norm_vector(const TypePtr& t) {
  TypePtr c = norm(t->child());
  const std::int64_t count = t->count();
  const std::int64_t blocklen = t->blocklen();
  const std::int64_t stride = t->stride_bytes();

  // hvector(c, bl, s, contiguous(m, x)) == hvector(c, bl*m, s, x) when the
  // inner contiguous type is gap-free (its copies tile back to back).
  if (c->kind() == Kind::kContiguous && c->is_dense()) {
    return norm(Datatype::hvector(count, blocklen * c->count(), stride,
                                  c->child()));
  }
  if (count == 1 || (count > 1 && c->is_dense() &&
                     stride == blocklen * c->extent())) {
    return norm(Datatype::contiguous(count * blocklen, std::move(c)));
  }
  if (blocklen == 1 && c->kind() == Kind::kContiguous) {
    // hvector(n, 1, s, contiguous(m, x)) == hvector(n, m, s, x): a block
    // of one contiguous(m, x) is m copies of x spaced by x's extent.
    return norm(
        Datatype::hvector(count, c->count(), stride, c->child()));
  }
  return Datatype::hvector(count, blocklen, stride, std::move(c));
}

TypePtr norm_indexed_block(const TypePtr& t) {
  TypePtr c = norm(t->child());
  const auto displs = t->displs_bytes();
  const std::int64_t blocklen = t->blocklen();
  if (displs.size() == 1) {
    TypePtr block = Datatype::contiguous(blocklen, std::move(c));
    if (displs[0] == 0) return norm(block);
    const std::int64_t one = 1;
    return Datatype::hindexed(std::span(&one, 1), displs, norm(block));
  }
  std::int64_t step = 0;
  if (uniform_stride(displs, &step)) {
    TypePtr v = Datatype::hvector(static_cast<std::int64_t>(displs.size()),
                                  blocklen, step, std::move(c));
    if (displs[0] == 0) return norm(v);
    const std::int64_t one = 1;
    const std::int64_t d0 = displs[0];
    return Datatype::hindexed(std::span(&one, 1), std::span(&d0, 1),
                              norm(v));
  }
  return Datatype::hindexed_block(blocklen, displs, std::move(c));
}

TypePtr norm_indexed(const TypePtr& t) {
  TypePtr c = norm(t->child());
  const auto blocklens = t->blocklens();
  const auto displs = t->displs_bytes();
  if (!blocklens.empty() && all_equal(blocklens)) {
    return norm(
        Datatype::hindexed_block(blocklens[0], displs, std::move(c)));
  }
  return Datatype::hindexed(blocklens, displs, std::move(c));
}

TypePtr norm_struct(const TypePtr& t) {
  std::vector<TypePtr> children;
  children.reserve(t->children().size());
  for (const auto& c : t->children()) children.push_back(norm(c));
  // A struct whose members all share one (normalized) child type is just
  // an hindexed type over that child.
  const bool homogeneous =
      !children.empty() &&
      std::all_of(children.begin(), children.end(), [&](const TypePtr& c) {
        return c.get() == children.front().get() ||
               (c->kind() == Kind::kElementary &&
                children.front()->kind() == Kind::kElementary &&
                c->size() == children.front()->size());
      });
  if (homogeneous) {
    return norm(Datatype::hindexed(t->blocklens(), t->displs_bytes(),
                                   children.front()));
  }
  return Datatype::struct_type(t->blocklens(), t->displs_bytes(), children);
}

TypePtr norm(const TypePtr& t) {
  switch (t->kind()) {
    case Kind::kElementary:
      return t;
    case Kind::kContiguous:
      return norm_contiguous(t);
    case Kind::kVector:
      return norm_vector(t);
    case Kind::kIndexedBlock:
      return norm_indexed_block(t);
    case Kind::kIndexed:
      return norm_indexed(t);
    case Kind::kStruct:
      return norm_struct(t);
    case Kind::kResized: {
      TypePtr c = norm(t->child());
      // Drop resized wrappers that do not change the bounds.
      if (t->lb() == c->lb() && t->ub() == c->ub()) return c;
      return Datatype::resized(std::move(c), t->lb(), t->extent());
    }
  }
  return t;
}

}  // namespace

TypePtr normalize(const TypePtr& type) {
  assert(type);
  TypePtr n = norm(type);
  // A rewrite may move the bounds of a degenerate type: a struct ignores
  // a zero-length block's displacement, but the hindexed it becomes
  // bounds its empty block there. Keep the input's bounds.
  if (n->lb() != type->lb() || n->ub() != type->ub()) {
    n = Datatype::resized(std::move(n), type->lb(), type->extent());
  }
  assert(n->size() == type->size());
  assert(n->lb() == type->lb() && n->ub() == type->ub());
  return n;
}

}  // namespace netddt::ddt
