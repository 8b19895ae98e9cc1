// Transport seam of the runtime layer.
//
// An EventLoop executes one actor; a Transport moves its outbound
// messages. The wall-clock runtime's transport is TcpCluster's per-node
// socket layer: length-prefixed frames over nonblocking sockets
// (src/net/frame.h). The seam lets a test drive a loop against a fake
// transport, and leaves a driver free to host several loops per thread.
#pragma once

#include "consensus/env.h"

namespace pig::runtime {

using pig::MessagePtr;
using pig::NodeId;
using pig::TimeNs;

/// Routes messages between actors. Implementations must be thread-safe:
/// Send is called from the sender's loop thread and, for client facades
/// like SyncClient, from arbitrary external threads.
///
/// Delivery is fail-silent (unknown peer, crashed process, dropped
/// connection all just lose the message) — exactly the Env::Send model
/// the protocols are designed for.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Routes `msg` from node `from` toward node `to`.
  virtual void Send(NodeId from, NodeId to, MessagePtr msg) = 0;
};

}  // namespace pig::runtime
