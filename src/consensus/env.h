// Execution environment abstraction.
//
// Protocol replicas and clients are deterministic event-driven state
// machines (Actor). They interact with the outside world only through Env:
// sending messages, setting timers, reading the clock, and drawing random
// numbers. Two drivers implement Env:
//   * sim::Cluster  — discrete-event simulation in virtual time (benches,
//                     property tests; fully deterministic per seed);
//   * runtime::TcpCluster — real threads, wall-clock time and real sockets;
//                     each node is an Env driven by its own epoll loop
//                     thread; nodes share one process (tests, examples,
//                     benches) or run as separate pig_node processes.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "common/types.h"
#include "consensus/message.h"

namespace pig {

/// Handle for a pending timer.
using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Services available to an actor. Not thread-safe; each actor is driven
/// by exactly one thread/event-loop at a time.
class Env {
 public:
  virtual ~Env() = default;

  /// This actor's node id.
  virtual NodeId self() const = 0;

  /// Current time (virtual in simulation, monotonic wall clock otherwise).
  virtual TimeNs Now() const = 0;

  /// Sends `msg` to `to`. Delivery is asynchronous and may fail silently
  /// (drops, partitions, crashed peer) — exactly the fail-silent model
  /// consensus protocols are designed for.
  virtual void Send(NodeId to, MessagePtr msg) = 0;

  /// Invokes `cb` once after `delay`, unless canceled. Callbacks run on
  /// the actor's own execution context (never concurrently with handlers).
  virtual TimerId SetTimer(TimeNs delay, std::function<void()> cb) = 0;

  virtual void CancelTimer(TimerId id) = 0;

  /// Deterministic per-actor random stream.
  virtual Rng& rng() = 0;

  /// Models extra CPU work (e.g. EPaxos dependency-graph execution) by
  /// pushing this node's simulated CPU availability forward. No-op on the
  /// wall-clock runtime, where real CPU time is consumed instead.
  virtual void ChargeCpu(TimeNs cost) { (void)cost; }

  /// The driver's current burst: one wake-up of the node's event loop,
  /// that is, everything the actor does between two output flushes. The
  /// value is nonzero and changes from one burst to the next, so two
  /// calls that see the same value run in the same wake-up. 0 means the
  /// driver does not say. Read-only; PigPaxos keys its relay picks on it
  /// (pigpaxos/replica.h). Wrapping Envs must forward it.
  virtual uint64_t burst() const { return 0; }
};

/// An event-driven participant: a replica or a benchmark client.
class Actor {
 public:
  virtual ~Actor() = default;

  /// Called once by the driver before any events are delivered.
  void Bind(Env* env) { env_ = env; }

  /// Invoked after Bind, when the cluster starts.
  virtual void OnStart() {}

  /// Invoked for each delivered message.
  virtual void OnMessage(NodeId from, const MessagePtr& msg) = 0;

  Env* env() const { return env_; }

 protected:
  Env* env_ = nullptr;
};

}  // namespace pig
