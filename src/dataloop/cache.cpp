#include "dataloop/cache.hpp"

#include <cstddef>
#include <functional>
#include <iterator>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace netddt::dataloop {
namespace {

// A cache slot is identified by (type fingerprint, count). Distinct
// structures may share a fingerprint, so a key match is only a
// candidate: lookups confirm it with ddt::same_structure().
struct Key {
  std::uint64_t fingerprint = 0;
  std::uint64_t count = 0;
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return std::hash<std::uint64_t>{}(k.fingerprint ^
                                      (k.count * 0x9e3779b97f4a7c15ull));
  }
};

struct Entry {
  Key key;
  ddt::TypePtr type;  // as first passed in (loops holds its normal form)
  std::shared_ptr<const CompiledDataloop> loops;
  std::shared_ptr<const FlatProgram> program;
  bool program_compiled = false;  // true once lowering ran (even if it
                                  // bailed on limits: program stays null
                                  // and we never retry)
};

using Slot = std::list<Entry>::iterator;

struct Cache {
  std::mutex mu;
  std::list<Entry> order;  // the entries; front = most recently used
  std::unordered_multimap<Key, Slot, KeyHash> index;
  std::uint64_t capacity = kDefaultCacheCapacity;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evicted = 0;

  // Caller holds mu for every member below.
  Slot find(const ddt::Datatype& type, std::uint64_t count) {
    auto [lo, hi] = index.equal_range(Key{type.fingerprint(), count});
    for (auto it = lo; it != hi; ++it) {
      if (ddt::same_structure(*it->second->type, type)) {
        return it->second;
      }
    }
    return order.end();
  }
  void touch(Slot e) {
    if (e != order.begin()) order.splice(order.begin(), order, e);
  }
  void evict_to_capacity() {
    while (capacity != 0 && order.size() > capacity) {
      const Slot victim = std::prev(order.end());
      auto [lo, hi] = index.equal_range(victim->key);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == victim) {
          index.erase(it);
          break;
        }
      }
      order.pop_back();
      ++evicted;
    }
  }
  // Returns the entry now cached for (type, count): the new one, or the
  // incumbent when another thread's compile landed first.
  Entry& insert(const ddt::TypePtr& type, std::uint64_t count,
                std::shared_ptr<const CompiledDataloop> loops) {
    if (const Slot found = find(*type, count); found != order.end()) {
      touch(found);
      return *found;
    }
    const Key key{type->fingerprint(), count};
    order.push_front(Entry{key, type, std::move(loops), nullptr, false});
    index.emplace(key, order.begin());
    ++misses;
    evict_to_capacity();
    return order.front();
  }
};

Cache& cache() {
  static Cache c;
  return c;
}

}  // namespace

std::shared_ptr<const CompiledDataloop> compile_cached(
    const ddt::TypePtr& type, std::uint64_t count) {
  Cache& c = cache();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (const Slot e = c.find(*type, count); e != c.order.end()) {
      ++c.hits;
      c.touch(e);
      return e->loops;
    }
  }
  // Compile outside the lock: compilation is the expensive part, and two
  // threads racing on the same key just produce one redundant compile.
  auto compiled = std::make_shared<const CompiledDataloop>(type, count);
  std::lock_guard<std::mutex> lock(c.mu);
  return c.insert(type, count, std::move(compiled)).loops;
}

CompiledPlan plan_cached(const ddt::TypePtr& type, std::uint64_t count) {
  Cache& c = cache();
  std::shared_ptr<const CompiledDataloop> loops;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (const Slot e = c.find(*type, count); e != c.order.end()) {
      ++c.hits;
      c.touch(e);
      if (e->program_compiled) return CompiledPlan{e->loops, e->program};
      loops = e->loops;  // dataloop cached, program still pending
    }
  }
  if (!loops) {
    loops = std::make_shared<const CompiledDataloop>(type, count);
  }
  // Lower the program outside the lock too; a racing thread at worst
  // duplicates the work and shares whichever result landed first.
  auto program = compile_program(*loops);

  std::lock_guard<std::mutex> lock(c.mu);
  Entry& e = c.insert(type, count, std::move(loops));
  if (!e.program_compiled) {
    e.program = std::move(program);
    e.program_compiled = true;
  }
  return CompiledPlan{e.loops, e.program};
}

DataloopCacheStats dataloop_cache_stats() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  return DataloopCacheStats{c.hits, c.misses,
                            static_cast<std::uint64_t>(c.order.size()),
                            c.evicted, c.capacity};
}

std::uint64_t dataloop_cache_set_capacity(std::uint64_t capacity) {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  const std::uint64_t prev = c.capacity;
  c.capacity = capacity;
  c.evict_to_capacity();
  return prev;
}

void dataloop_cache_clear() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.index.clear();
  c.order.clear();
  c.capacity = kDefaultCacheCapacity;
  c.hits = 0;
  c.misses = 0;
  c.evicted = 0;
}

}  // namespace netddt::dataloop
