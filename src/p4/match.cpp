#include "p4/match.hpp"

#include <string>

#include "sim/check.hpp"

// Entries are grouped two levels deep:
//
//   list -> mask class (one per distinct ignore_bits)
//        -> bucket (one per masked key match_bits & ~ignore_bits)
//        -> intrusive FIFO chain of entries
//
// A lookup visits each mask class of the list once, probes its bucket
// map with bits & ~class.ignore, and takes the chain head — the oldest
// entry of that bucket. Across classes the lowest global append
// sequence wins, which is exactly the entry a front-to-back list scan
// would return. Typical workloads use one or two ignore masks (exact
// tags plus a wildcard overflow), so a lookup is a couple of hash
// probes regardless of how many receives are posted. Adversarial
// workloads with many distinct masks degrade toward a scan over
// classes, never worse than a list scan over entries.
//
// Nodes live in an unordered_map keyed by handle (node-based, so
// addresses are stable across rehash); buckets likewise. Mask classes
// sit in a deque so Bucket::owner back-pointers survive class creation.

namespace netddt::p4 {
namespace {

std::string entry_detail(const MatchEntry& e) {
  return "handle " + std::to_string(e.id) + " match_bits 0x" +
         [](std::uint64_t v) {
           static const char* digits = "0123456789abcdef";
           std::string out;
           do {
             out.insert(out.begin(), digits[v & 0xF]);
             v >>= 4;
           } while (v != 0);
           return out;
         }(e.match_bits);
}

}  // namespace

void MatchEngine::append(ListKind list, const MatchEntry& entry) {
  NETDDT_CHECK(nodes_.find(entry.id) == nodes_.end(),
               "duplicate append of match entry: " + entry_detail(entry));
  Node& n = nodes_[entry.id];
  n.entry = entry;
  n.seq = next_seq_++;
  n.list = list;
  link_tail(n, bucket_for(list, entry));
  ++sizes_[index(list)];
}

std::optional<MatchResult> MatchEngine::match(std::uint64_t bits) {
  for (ListKind list : {ListKind::kPriority, ListKind::kOverflow}) {
    Node* best = nullptr;
    for (auto& mc : classes_[index(list)]) {
      const auto it = mc.buckets.find(bits & ~mc.ignore);
      if (it == mc.buckets.end()) continue;
      Node* head = it->second.head;
      if (head != nullptr && (best == nullptr || head->seq < best->seq)) {
        best = head;
      }
    }
    if (best != nullptr) {
      MatchResult result{best->entry, list};
      NETDDT_CHECK(best->entry.matches(bits),
                   "hashed bucket returned a non-matching entry: " +
                       entry_detail(best->entry));
      if (best->entry.use_once) {
        detach(*best);
        nodes_.erase(result.entry.id);
      }
      return result;
    }
  }
  return std::nullopt;
}

bool MatchEngine::unlink(std::uint64_t id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return false;
  detach(it->second);
  nodes_.erase(it);
  return true;
}

MatchEngine::Bucket& MatchEngine::bucket_for(ListKind list,
                                             const MatchEntry& entry) {
  auto& classes = classes_[index(list)];
  MaskClass* mc = nullptr;
  for (auto& c : classes) {
    if (c.ignore == entry.ignore_bits) {
      mc = &c;
      break;
    }
  }
  if (mc == nullptr) {
    classes.emplace_back();
    mc = &classes.back();
    mc->ignore = entry.ignore_bits;
  }
  const std::uint64_t key = entry.match_bits & ~entry.ignore_bits;
  Bucket& b = mc->buckets[key];
  if (b.owner == nullptr) {
    b.owner = mc;
    b.key = key;
  }
  return b;
}

void MatchEngine::link_tail(Node& n, Bucket& b) {
  n.bucket = &b;
  n.prev = b.tail;
  n.next = nullptr;
  (b.tail != nullptr ? b.tail->next : b.head) = &n;
  b.tail = &n;
}

void MatchEngine::detach(Node& n) {
  NETDDT_CHECK(n.bucket != nullptr,
               "detach of unlinked match entry: " + entry_detail(n.entry));
  Bucket& b = *n.bucket;
  (n.prev != nullptr ? n.prev->next : b.head) = n.next;
  (n.next != nullptr ? n.next->prev : b.tail) = n.prev;
  n.prev = n.next = nullptr;
  n.bucket = nullptr;
  --sizes_[index(n.list)];
  if (b.head == nullptr) b.owner->buckets.erase(b.key);
}

std::unique_ptr<MatchEngine> make_match_engine(MatchEngineKind) {
  return std::make_unique<MatchEngine>();
}

std::uint64_t MatchList::append(ListKind list, MatchEntry entry) {
  NETDDT_CHECK(entry.id == 0,
               "append of an entry with a pre-set handle: " +
                   entry_detail(entry));
  entry.id = next_id_++;
  engine_.append(list, entry);
  return entry.id;
}

}  // namespace netddt::p4
