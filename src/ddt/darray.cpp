#include "ddt/darray.hpp"

#include <string>
#include <vector>

#include "sim/check.hpp"

namespace netddt::ddt {
namespace {

/// Block-cyclic type for one dimension: the elements of a length-`n`
/// dimension owned by grid coordinate `coord` of `p` with block size
/// `b`, built over `inner` (one element of the remaining dimensions)
/// and resized to the dimension's full span so outer dimensions can
/// iterate over it.
TypePtr distribute_dim(std::int64_t n, std::int64_t p, std::int64_t coord,
                       std::int64_t b, TypePtr inner) {
  const std::int64_t ex = inner->extent();
  std::vector<std::int64_t> blocklens, displs;
  // Blocks owned by `coord` start at coord*b, coord*b + p*b, ...
  for (std::int64_t start = coord * b; start < n; start += p * b) {
    blocklens.push_back(std::min(b, n - start));
    displs.push_back(start * ex);
  }
  TypePtr t = Datatype::hindexed(blocklens, displs, std::move(inner));
  return Datatype::resized(std::move(t), 0, n * ex);
}

}  // namespace

TypePtr darray(std::int64_t rank, std::span<const std::int64_t> gsizes,
               std::span<const Distribution> distribs,
               std::span<const std::int64_t> dargs,
               std::span<const std::int64_t> psizes, TypePtr base,
               bool c_order) {
  const std::size_t ndims = gsizes.size();
  NETDDT_CHECK(ndims > 0 && distribs.size() == ndims &&
                   dargs.size() == ndims && psizes.size() == ndims,
               "darray: " + std::to_string(ndims) + " gsizes, " +
                   std::to_string(distribs.size()) + " distribs, " +
                   std::to_string(dargs.size()) + " dargs, " +
                   std::to_string(psizes.size()) + " psizes");
  NETDDT_CHECK(base, "darray: null base type");
  NETDDT_CHECK(base->extent() >= 0,
               "darray: base extent " + std::to_string(base->extent()));

  // Grid coordinates of `rank` (row-major over psizes, per MPI).
  std::vector<std::int64_t> coords(ndims);
  std::int64_t grid = 1;
  for (auto p : psizes) grid *= p;
  NETDDT_CHECK(rank >= 0 && rank < grid,
               "darray: rank " + std::to_string(rank) + " outside a " +
                   std::to_string(grid) + "-process grid");
  std::int64_t rem = rank;
  for (std::size_t d = ndims; d-- > 0;) {
    coords[d] = rem % psizes[d];
    rem /= psizes[d];
  }

  // Build innermost-first: in C order dimension ndims-1 is contiguous.
  TypePtr t = std::move(base);
  for (std::size_t k = ndims; k-- > 0;) {
    const std::size_t d = c_order ? k : ndims - 1 - k;
    const std::int64_t n = gsizes[d];
    const std::int64_t p = psizes[d];
    NETDDT_CHECK(n > 0 && p > 0, "darray: dim " + std::to_string(d) +
                                     " gsize " + std::to_string(n) +
                                     ", psize " + std::to_string(p));
    switch (distribs[d]) {
      case Distribution::kNone: {
        NETDDT_CHECK(p == 1, "darray: kNone dim " + std::to_string(d) +
                                 " needs a single process, not " +
                                 std::to_string(p));
        const std::int64_t ex = t->extent();
        t = Datatype::resized(Datatype::contiguous(n, std::move(t)), 0,
                              n * ex);
        break;
      }
      case Distribution::kBlock: {
        std::int64_t b = dargs[d];
        if (b == kDefaultDarg) b = (n + p - 1) / p;  // ceil(n/p)
        NETDDT_CHECK(b * p >= n, "darray: block " + std::to_string(b) +
                                     " x " + std::to_string(p) +
                                     " processes cannot cover dim " +
                                     std::to_string(d) + " of " +
                                     std::to_string(n));
        t = distribute_dim(n, p, coords[d], b, std::move(t));
        break;
      }
      case Distribution::kCyclic: {
        const std::int64_t b = dargs[d] == kDefaultDarg ? 1 : dargs[d];
        NETDDT_CHECK(b > 0, "darray: cyclic block " + std::to_string(b) +
                                " in dim " + std::to_string(d));
        t = distribute_dim(n, p, coords[d], b, std::move(t));
        break;
      }
    }
  }
  return t;
}

}  // namespace netddt::ddt
