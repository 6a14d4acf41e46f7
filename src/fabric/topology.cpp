#include "fabric/topology.hpp"

#include <string>

#include "sim/check.hpp"

namespace netddt::fabric {

namespace {

/// Route preconditions shared by every topology: both endpoints exist
/// and differ.
void check_route(std::uint32_t src, std::uint32_t dst, std::uint32_t nodes) {
  NETDDT_CHECK(src < nodes && dst < nodes && src != dst,
               "route src " + std::to_string(src) + " -> dst " +
                   std::to_string(dst) + " on a " + std::to_string(nodes) +
                   "-node topology");
}

/// SplitMix64 finalizer (same mixer as sim::Rng seeding): decorrelates
/// the oblivious path choice across (src, dst) pairs.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Two-level leaf/spine fat-tree. Port id layout (dense):
///   [0, N)                         injection (node -> leaf)
///   [N, N + L*S)                   leaf l's up-port to spine s
///   [N + L*S, N + L*S + S*L)       spine s's down-port to leaf l
///   [N + 2*L*S, N + 2*L*S + N)     ejection (leaf -> node)
class FatTree final : public Topology {
 public:
  explicit FatTree(const TopologyConfig& c)
      : nodes_(c.nodes),
        radix_(c.leaf_radix > 0 ? c.leaf_radix : 1),
        leaves_((nodes_ + radix_ - 1) / radix_),
        spines_(c.spines > 0 ? c.spines : 1) {
    NETDDT_CHECK(nodes_ >= 2, "topology needs at least two nodes");
  }

  TopologyKind kind() const override { return TopologyKind::kFatTree; }
  std::uint32_t nodes() const override { return nodes_; }
  std::uint32_t port_count() const override {
    return 2 * nodes_ + 2 * leaves_ * spines_;
  }

  void route(std::uint32_t src, std::uint32_t dst,
             std::vector<std::uint32_t>& out) const override {
    check_route(src, dst, nodes_);
    out.clear();
    out.push_back(src);  // injection
    const std::uint32_t ls = src / radix_, ld = dst / radix_;
    if (ls != ld) {
      // Oblivious ECMP: the spine is a pure hash of the pair, so the
      // same flow always takes the same path (deterministic) while the
      // aggregate load spreads across spines.
      const std::uint32_t s = static_cast<std::uint32_t>(
          mix((static_cast<std::uint64_t>(src) << 32) | dst) % spines_);
      out.push_back(nodes_ + ls * spines_ + s);            // leaf up
      out.push_back(nodes_ + leaves_ * spines_ + s * leaves_ + ld);
    }
    out.push_back(nodes_ + 2 * leaves_ * spines_ + dst);  // ejection
  }

 private:
  std::uint32_t nodes_, radix_, leaves_, spines_;
};

/// Dragonfly with G groups of R routers, P nodes per router. Minimal
/// routing: local hop to the gateway router, one global hop, local hop
/// to the destination router. Gateways are deterministic: traffic from
/// group g to group g2 leaves via router (g2 % R) and arrives at router
/// (g % R). Port id layout (dense):
///   [0, N)                          injection (node -> router)
///   [N, N + G*R*R)                  local port of router (g,r) to r2
///   [N + G*R*R, N + G*R*R + G*R*G)  global port of router (g,r) to g2
///   [.., .. + N)                    ejection (router -> node)
class Dragonfly final : public Topology {
 public:
  explicit Dragonfly(const TopologyConfig& c)
      : nodes_(c.nodes),
        routers_(c.group_routers > 0 ? c.group_routers : 1),
        per_router_(c.router_nodes > 0 ? c.router_nodes : 1) {
    const std::uint32_t per_group = routers_ * per_router_;
    groups_ = (nodes_ + per_group - 1) / per_group;
    NETDDT_CHECK(nodes_ >= 2, "topology needs at least two nodes");
  }

  TopologyKind kind() const override { return TopologyKind::kDragonfly; }
  std::uint32_t nodes() const override { return nodes_; }
  std::uint32_t port_count() const override {
    const std::uint32_t nr = groups_ * routers_;
    return 2 * nodes_ + nr * routers_ + nr * groups_;
  }

  void route(std::uint32_t src, std::uint32_t dst,
             std::vector<std::uint32_t>& out) const override {
    check_route(src, dst, nodes_);
    out.clear();
    const std::uint32_t per_group = routers_ * per_router_;
    const std::uint32_t gs = src / per_group, gd = dst / per_group;
    const std::uint32_t rs = (src % per_group) / per_router_;
    const std::uint32_t rd = (dst % per_group) / per_router_;
    out.push_back(src);  // injection
    if (gs == gd) {
      if (rs != rd) out.push_back(local_port(gs, rs, rd));
    } else {
      const std::uint32_t gw_out = gd % routers_;  // exit router in gs
      const std::uint32_t gw_in = gs % routers_;   // entry router in gd
      if (rs != gw_out) out.push_back(local_port(gs, rs, gw_out));
      out.push_back(global_port(gs, gw_out, gd));
      if (gw_in != rd) out.push_back(local_port(gd, gw_in, rd));
    }
    out.push_back(nodes_ + groups_ * routers_ * (routers_ + groups_) +
                  dst);  // ejection
  }

 private:
  std::uint32_t local_port(std::uint32_t g, std::uint32_t r,
                           std::uint32_t r2) const {
    return nodes_ + (g * routers_ + r) * routers_ + r2;
  }
  std::uint32_t global_port(std::uint32_t g, std::uint32_t r,
                            std::uint32_t g2) const {
    return nodes_ + groups_ * routers_ * routers_ +
           (g * routers_ + r) * groups_ + g2;
  }

  std::uint32_t nodes_, routers_, per_router_, groups_ = 1;
};

/// Two nodes joined by one wire each way: port n carries node n's
/// packets to the other node.
class PointToPoint final : public Topology {
 public:
  explicit PointToPoint(const TopologyConfig& c) {
    NETDDT_CHECK(c.nodes == 2, "point-to-point topology has two nodes, not " +
                                   std::to_string(c.nodes));
  }

  TopologyKind kind() const override { return TopologyKind::kPointToPoint; }
  std::uint32_t nodes() const override { return 2; }
  std::uint32_t port_count() const override { return 2; }

  void route(std::uint32_t src, std::uint32_t dst,
             std::vector<std::uint32_t>& out) const override {
    check_route(src, dst, 2);
    out.assign(1, src);
  }
};

}  // namespace

std::unique_ptr<Topology> make_topology(const TopologyConfig& config) {
  switch (config.kind) {
    case TopologyKind::kFatTree:
      return std::make_unique<FatTree>(config);
    case TopologyKind::kDragonfly:
      return std::make_unique<Dragonfly>(config);
    case TopologyKind::kPointToPoint:
      return std::make_unique<PointToPoint>(config);
  }
  return nullptr;
}

}  // namespace netddt::fabric
