#pragma once
// Portals 4 matching unit: priority and overflow lists of match list
// entries (MEs). A header packet searches the priority list first, then
// the overflow list; an ME matches when
//   (incoming_bits ^ me.match_bits) & ~me.ignore_bits == 0.
// A matched ME may unlink from its list but is retained by the NIC until
// the message's completion packet so the remaining packets of the message
// match without re-searching (paper Sec 2.1.2).
//
// The search is hashed: entries bucket by their masked key
// (match_bits & ~ignore_bits) inside per-ignore-mask classes, so a
// lookup probes one hash bucket per distinct ignore mask instead of
// walking every posted receive. Append and unlink are O(1) via
// intrusive handles. FIFO semantics are preserved exactly: every entry
// carries a global append sequence number, and when several mask
// classes have a candidate the lowest sequence wins — the same entry a
// front-to-back list walk would have found. The priority list is
// exhausted before the overflow list is consulted. The tests hold the
// engine to a front-to-back list scan (tests/reference/linear_match.hpp).
//
// Matching is functional in the simulation: which entry wins affects
// where bytes land, never how long matching takes (the cost model folds
// the matching unit into the per-packet NIC overhead).
//
// Per-peer bucketing: Packet stays 40 bytes (no peer field), so tenants
// that want per-peer isolation encode the peer id in the high bits of
// match_bits. Distinct prefixes land in distinct hash buckets, which
// gives per-peer buckets without widening the wire format.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

namespace netddt::p4 {

struct MatchEntry {
  std::uint64_t id = 0;           // handle for unlinking
  std::uint64_t match_bits = 0;
  std::uint64_t ignore_bits = 0;  // bits to ignore during matching
  std::int64_t buffer_offset = 0; // destination offset in host memory
  std::uint64_t length = 0;       // bytes the entry can absorb
  bool use_once = true;           // unlink when a message matches
  /// Opaque execution-context pointer (owned by the sPIN layer); nullptr
  /// means the non-processing (plain RDMA) data path.
  void* context = nullptr;

  bool matches(std::uint64_t bits) const {
    return ((bits ^ match_bits) & ~ignore_bits) == 0;
  }
};

enum class ListKind { kPriority, kOverflow };

/// Result of a header-packet search.
struct MatchResult {
  MatchEntry entry;   // a copy the NIC retains for the message lifetime
  ListKind list;
};

/// The hashed search behind MatchList. The caller owns handle
/// assignment; entries arrive with a unique nonzero id.
class MatchEngine {
 public:
  MatchEngine() = default;
  // Nodes and buckets point at each other: a copy would alias them.
  MatchEngine(const MatchEngine&) = delete;
  MatchEngine& operator=(const MatchEngine&) = delete;

  /// Insert at the tail of `list` (FIFO append order).
  void append(ListKind list, const MatchEntry& entry);

  /// Search priority then overflow; within a list, the oldest matching
  /// entry wins. A matching use_once entry is unlinked. Returns nullopt
  /// when nothing matches.
  std::optional<MatchResult> match(std::uint64_t bits);

  /// Unlink by handle; returns false if the entry was already gone.
  bool unlink(std::uint64_t id);

  std::size_t size(ListKind list) const { return sizes_[index(list)]; }

 private:
  struct Bucket;
  struct Node {
    MatchEntry entry;
    std::uint64_t seq = 0;
    ListKind list = ListKind::kPriority;
    Bucket* bucket = nullptr;
    Node* prev = nullptr;
    Node* next = nullptr;
  };
  struct MaskClass;
  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
    MaskClass* owner = nullptr;
    std::uint64_t key = 0;
  };
  struct MaskClass {
    std::uint64_t ignore = 0;
    std::unordered_map<std::uint64_t, Bucket> buckets;
  };

  static std::size_t index(ListKind list) {
    return list == ListKind::kPriority ? 0 : 1;
  }
  Bucket& bucket_for(ListKind list, const MatchEntry& entry);
  void link_tail(Node& n, Bucket& b);
  void detach(Node& n);

  std::deque<MaskClass> classes_[2];
  std::unordered_map<std::uint64_t, Node> nodes_;
  std::uint64_t next_seq_ = 1;
  std::size_t sizes_[2] = {0, 0};
};

/// Thin names kept for perf_ladder/src/layers.cpp, which benchmarks the
/// engine through them; the hashed engine is the only one.
enum class MatchEngineKind { kHashed };
std::unique_ptr<MatchEngine> make_match_engine(MatchEngineKind kind);

/// The matching unit as the NIC sees it: assigns handles and searches
/// with the hashed engine.
class MatchList {
 public:
  /// Append an entry; returns its handle.
  std::uint64_t append(ListKind list, MatchEntry entry);

  /// Search priority then overflow. A matching use_once entry is
  /// unlinked. Returns nullopt when nothing matches (packet is dropped).
  std::optional<MatchResult> match(std::uint64_t bits) {
    return engine_.match(bits);
  }

  /// Unlink by handle; returns false if the entry was already gone.
  bool unlink(std::uint64_t id) { return engine_.unlink(id); }

  std::size_t priority_size() const {
    return engine_.size(ListKind::kPriority);
  }
  std::size_t overflow_size() const {
    return engine_.size(ListKind::kOverflow);
  }

 private:
  MatchEngine engine_;
  std::uint64_t next_id_ = 1;
};

}  // namespace netddt::p4
