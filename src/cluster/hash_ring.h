// Consistent-hash ring with virtual nodes — the fleet-placement half of
// the paper's sticky-session routing (Figure 1 / Section 4.2). Unlike the
// modulo placement in StickySessionRouter, adding or removing one pod
// only remaps ~1/N of the session keys, so a rolling deploy or a pod
// failure does not reshuffle (and thereby depersonalise) the whole fleet's
// evolving sessions.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace serenade {

/// Maps string keys onto a set of named nodes via consistent hashing.
/// Not thread-safe; callers that mutate the node set concurrently with
/// lookups must synchronise externally (the gateway guards its ring with
/// a membership mutex and rebuilds it on live join/drain/remove).
class HashRing {
 public:
  /// More virtual nodes smooth the load split at the cost of ring size;
  /// 128 keeps the max/min node share within ~2x for small fleets.
  HashRing() : HashRing(128) {}
  explicit HashRing(size_t virtual_nodes_per_node);

  /// Adds a node (idempotent).
  void AddNode(const std::string& node);

  /// Removes a node (no-op when absent). Keys owned by the removed node
  /// redistribute across the survivors; everyone else's keys stay put.
  void RemoveNode(const std::string& node);

  bool Contains(const std::string& node) const;
  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<std::string>& nodes() const { return nodes_; }

  /// The node owning `key`. Must not be called on an empty ring.
  const std::string& NodeFor(std::string_view key) const;

  /// Up to `max_nodes` distinct nodes in ring order starting at the key's
  /// point: the owner first, then the natural failover successors. The
  /// order is deterministic per key, so every gateway replica agrees on
  /// which backend is "next" when the owner is unhealthy.
  std::vector<std::string> ReplicasFor(std::string_view key,
                                       size_t max_nodes) const;

  /// The next distinct node after `node` in the cyclic order of hashed
  /// node names. This is the node-level successor relation replication
  /// uses: pod P ships its whole WAL to SuccessorOf(P), so on P's death
  /// exactly one peer holds its replica. Returns "" for an unknown node
  /// or a single-node ring.
  std::string SuccessorOf(const std::string& node) const;

  /// All nodes starting at `start` and walking the node-successor cycle
  /// (start first). Used by the gateway to order failover candidates so
  /// traffic for a dead owner lands on the peer holding its replica.
  /// Returns an empty vector when `start` is unknown.
  std::vector<std::string> SuccessorChain(const std::string& start) const;

 private:
  void Rebuild();

  struct Point {
    uint64_t hash;
    uint32_t node_index;
  };

  size_t virtual_nodes_per_node_;
  std::vector<std::string> nodes_;  // sorted for deterministic rebuilds
  std::vector<Point> ring_;         // sorted by hash
};

}  // namespace serenade
