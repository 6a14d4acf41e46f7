#pragma once
// Network topologies for the multi-node fabric (ROADMAP: "N-node fabric
// with switches and a topology model").
//
// A Topology maps (src, dst) endpoint pairs to routes. A route is an
// ordered list of *global output-port ids*: the sender NIC's injection
// port, then one output port per switch traversed, then the ejection
// port that delivers into the destination NIC. Port id n (n < nodes())
// is node n's injection port. Ports are the unit of contention — the
// Fabric keeps one FIFO/serialization clock per port id — so two routes
// sharing a port id share that port's wire.
//
// The point-to-point topology is the single link of the paper's
// microbenchmarks: two nodes, one wire each way, so a route is the one
// injection port that also delivers.
//
// Routing is deterministic and oblivious: path selection (the fat-tree
// spine, the dragonfly gateway) is a pure function of (src, dst), so
// simulated runs are reproducible across --jobs levels and repeats.

#include <cstdint>
#include <memory>
#include <vector>

namespace netddt::fabric {

enum class TopologyKind { kFatTree, kDragonfly, kPointToPoint };

inline const char* topology_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kFatTree: return "fat-tree";
    case TopologyKind::kDragonfly: return "dragonfly";
    case TopologyKind::kPointToPoint: return "point-to-point";
  }
  return "?";
}

struct TopologyConfig {
  TopologyKind kind = TopologyKind::kFatTree;
  std::uint32_t nodes = 64;
  // Fat-tree (two-level leaf/spine): endpoints per leaf switch and the
  // number of spine switches (the leaf's up-link count). spines <
  // leaf_radix models oversubscription.
  std::uint32_t leaf_radix = 8;
  std::uint32_t spines = 4;
  // Dragonfly: groups x routers-per-group x nodes-per-router must cover
  // `nodes` (the last group may be partially populated).
  std::uint32_t group_routers = 4;
  std::uint32_t router_nodes = 4;
};

class Topology {
 public:
  virtual ~Topology() = default;
  virtual TopologyKind kind() const = 0;
  virtual std::uint32_t nodes() const = 0;
  /// Total number of global output-port ids (dense, 0-based); sizes the
  /// Fabric's per-port state.
  virtual std::uint32_t port_count() const = 0;
  /// Append the route src -> dst to `out` (cleared first): injection
  /// port, per-switch output ports, ejection port. src == dst is
  /// invalid.
  virtual void route(std::uint32_t src, std::uint32_t dst,
                     std::vector<std::uint32_t>& out) const = 0;
};

std::unique_ptr<Topology> make_topology(const TopologyConfig& config);

}  // namespace netddt::fabric
