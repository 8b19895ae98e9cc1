// Client-side shard routing.
//
// Keys are hash-partitioned across consensus groups with a stable FNV-1a
// hash over the key bytes: the mapping is a pure function of (key,
// num_groups), identical on every client, node, and test, and pinned by
// golden values in tests/shard_router_test.cc so it can never drift
// under refactoring (a silent change would re-partition live data).
//
// ShardRouter also tracks one leader guess per group for the client core
// (client/session.h): a replica that eats a request without answering
// is suspected and skipped, and stale NotLeader hints pointing back at
// the suspect are distrusted until redirects insist. Each group's
// consensus runs independently, so the tracking state is fully
// per-group; unsharded clients use a single group.
#pragma once

#include <cassert>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "statemachine/command.h"

namespace pig::shard {

/// Stable 64-bit FNV-1a over the key bytes. Never change this function:
/// the key -> group mapping is part of the deployment contract.
inline uint64_t StableKeyHash(std::string_view key) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Consensus group owning `key` in a `num_groups`-way partition.
inline uint32_t GroupOfKey(std::string_view key, uint32_t num_groups) {
  if (num_groups <= 1) return 0;
  return static_cast<uint32_t>(StableKeyHash(key) % num_groups);
}

/// Group owning a command. Batches are pure carriers assembled inside
/// one group's leader, so every sub-command shares the first one's
/// group; key-less noops belong to group 0 by convention.
inline uint32_t GroupOfCommand(const Command& cmd, uint32_t num_groups) {
  if (cmd.IsBatch()) {
    return cmd.batch.empty() ? 0 : GroupOfCommand(cmd.batch.front(),
                                                  num_groups);
  }
  if (cmd.key.empty()) return 0;
  return GroupOfKey(cmd.key, num_groups);
}

/// Per-group leader tracker for clients (one group when unsharded).
class ShardRouter {
 public:
  /// Each group's initial target mirrors the harness's leader-placement
  /// policy (group g bootstraps its leader on node g % num_replicas), so
  /// a cold client's first request usually lands on the right node.
  ShardRouter(uint32_t num_groups, size_t num_replicas)
      : num_replicas_(num_replicas), groups_(num_groups) {
    assert(num_groups >= 1 && num_replicas >= 1);
    for (uint32_t g = 0; g < num_groups; ++g) {
      groups_[g].target = static_cast<NodeId>(g % num_replicas_);
    }
  }

  uint32_t num_groups() const {
    return static_cast<uint32_t>(groups_.size());
  }

  uint32_t GroupOf(std::string_view key) const {
    return GroupOfKey(key, num_groups());
  }

  /// Current best-guess leader for group `g`.
  NodeId Target(uint32_t g) const { return groups_[g].target; }

  /// Overrides group `g`'s target (suspicion state is kept).
  void SetTarget(uint32_t g, NodeId target) { groups_[g].target = target; }

  /// Group `g`'s target never answered: suspect it and probe the next
  /// replica.
  void NoteSilence(uint32_t g) {
    GroupState& st = groups_[g];
    st.suspect = st.target;
    st.strikes = 0;
    st.target = NextTarget(st, st.target);
  }

  /// Group `g` answered NotLeader with an optional leader hint.
  void NoteRedirect(uint32_t g, NodeId hint) {
    GroupState& st = groups_[g];
    if (hint != kInvalidNode && hint == st.suspect) {
      // Stale hint toward a crashed leader. Rotate — unless hints keep
      // insisting, which means it really is back.
      if (++st.strikes >= kSuspectHintStrikes) {
        st.suspect = kInvalidNode;
        st.strikes = 0;
        st.target = hint;
      } else {
        st.target = NextTarget(st, st.target);
      }
    } else if (hint != kInvalidNode) {
      st.target = hint;
    } else {
      st.target = NextTarget(st, st.target);
    }
  }

  /// A reply (of any kind) arrived for group `g` from `from`.
  void NoteReply(uint32_t g, NodeId from) {
    GroupState& st = groups_[g];
    if (from == st.suspect) {
      st.suspect = kInvalidNode;  // it answered after all
      st.strikes = 0;
    }
  }

 private:
  struct GroupState {
    NodeId target = 0;
    NodeId suspect = kInvalidNode;
    int strikes = 0;
  };

  static constexpr int kSuspectHintStrikes = 3;

  NodeId NextTarget(const GroupState& st, NodeId after) const {
    NodeId next = static_cast<NodeId>((after + 1) % num_replicas_);
    if (next == st.suspect && num_replicas_ > 1) {
      next = static_cast<NodeId>((next + 1) % num_replicas_);
    }
    return next;
  }

  size_t num_replicas_;
  std::vector<GroupState> groups_;
};

}  // namespace pig::shard
