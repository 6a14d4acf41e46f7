#pragma once
// Reference matching unit for differential tests and match_perf: one
// std::list per Portals list, scanned front to back — O(n) match and
// unlink. Handles are assigned exactly as p4::MatchList assigns them
// (1, 2, 3, ... in append order), so a test can drive both with the same
// operations and compare handles, hits and sizes.

#include <cstdint>
#include <list>
#include <optional>
#include <string>

#include "p4/match.hpp"
#include "sim/check.hpp"

namespace netddt::p4::reference {

class LinearMatchList {
 public:
  std::uint64_t append(ListKind list, MatchEntry entry) {
    NETDDT_CHECK(entry.id == 0, "append of an entry with a pre-set handle " +
                                    std::to_string(entry.id));
    entry.id = next_id_++;
    (list == ListKind::kPriority ? priority_ : overflow_).push_back(entry);
    return entry.id;
  }

  std::optional<MatchResult> match(std::uint64_t bits) {
    if (auto hit = search(priority_, ListKind::kPriority, bits)) return hit;
    return search(overflow_, ListKind::kOverflow, bits);
  }

  bool unlink(std::uint64_t id) {
    for (auto* list : {&priority_, &overflow_}) {
      for (auto it = list->begin(); it != list->end(); ++it) {
        if (it->id == id) {
          list->erase(it);
          return true;
        }
      }
    }
    return false;
  }

  std::size_t priority_size() const { return priority_.size(); }
  std::size_t overflow_size() const { return overflow_.size(); }

 private:
  static std::optional<MatchResult> search(std::list<MatchEntry>& list,
                                           ListKind kind,
                                           std::uint64_t bits) {
    for (auto it = list.begin(); it != list.end(); ++it) {
      if (it->matches(bits)) {
        MatchResult result{*it, kind};
        if (it->use_once) list.erase(it);
        return result;
      }
    }
    return std::nullopt;
  }

  std::list<MatchEntry> priority_;
  std::list<MatchEntry> overflow_;
  std::uint64_t next_id_ = 1;
};

}  // namespace netddt::p4::reference
