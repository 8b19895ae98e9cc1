#include "runtime/thread_cluster.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/logging.h"
#include "consensus/client_messages.h"

namespace pig::runtime {

ThreadCluster::ThreadCluster(uint64_t seed) : seed_(seed) {}

ThreadCluster::~ThreadCluster() { Stop(); }

void ThreadCluster::AddActor(NodeId id, std::unique_ptr<Actor> actor) {
  assert(!running_.load());
  std::unique_lock<std::shared_mutex> topo(topo_mu_);
  Transport* transport = this;  // private base: convert inside the class
  auto node = std::make_unique<Node>();
  node->loop = std::make_unique<EventLoop>(id, std::move(actor), transport,
                                           &clock_, seed_);
  order_.push_back(id);
  nodes_.emplace(id, std::move(node));
}

ThreadCluster::Node* ThreadCluster::FindNode(NodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

Actor* ThreadCluster::actor(NodeId id) {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  Node* node = FindNode(id);
  return node == nullptr ? nullptr : node->loop->actor();
}

TimeNs ThreadCluster::Now() const { return clock_.Now(); }

void ThreadCluster::Send(NodeId from, NodeId to, MessagePtr msg) {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  Node* dest = FindNode(to);
  if (dest == nullptr || !dest->alive.load(std::memory_order_acquire)) {
    return;  // fail-silent: unknown or stopped node
  }
  // Encode into a buffer recycled from the destination's loop; at steady
  // state the encode->decode round trip reuses its capacity.
  std::vector<uint8_t> wire = dest->loop->AcquireWireBuffer();
  EncodeMessageTo(*msg, &wire);
  dest->loop->Deliver(from, std::move(wire));
}

void ThreadCluster::LaunchNode(Node* node) {
  node->alive.store(true, std::memory_order_release);
  EventLoop* loop = node->loop.get();
  std::atomic<bool>* alive = &node->alive;
  node->thread = std::thread([loop, alive]() { loop->Run(*alive); });
}

void ThreadCluster::Start() {
  assert(!running_.load());
  clock_.Reset();
  running_.store(true);
  for (NodeId id : order_) {
    LaunchNode(nodes_[id].get());
  }
}

void ThreadCluster::Stop() {
  if (!running_.exchange(false)) return;
  for (auto& [_, node] : nodes_) {
    node->alive.store(false, std::memory_order_release);
    node->loop->Wake();
  }
  for (auto& [_, node] : nodes_) {
    if (node->thread.joinable()) node->thread.join();
  }
}

void ThreadCluster::StopNode(NodeId id) {
  Node* node = nullptr;
  {
    std::shared_lock<std::shared_mutex> topo(topo_mu_);
    node = FindNode(id);
  }
  if (node == nullptr) return;
  node->alive.store(false, std::memory_order_release);
  node->loop->Wake();
  if (node->thread.joinable()) node->thread.join();
}

void ThreadCluster::RestartNode(NodeId id, std::unique_ptr<Actor> actor) {
  Node* node = nullptr;
  {
    std::shared_lock<std::shared_mutex> topo(topo_mu_);
    node = FindNode(id);
  }
  if (node == nullptr) return;
  assert(!node->alive.load());
  if (node->thread.joinable()) node->thread.join();
  {
    // Exclusive: senders must not observe the loop mid-swap.
    std::unique_lock<std::shared_mutex> topo(topo_mu_);
    Transport* transport = this;
    node->loop = std::make_unique<EventLoop>(id, std::move(actor), transport,
                                             &clock_, seed_);
  }
  if (running_.load()) LaunchNode(node);
}

// ---------------------------------------------------------------------------

void SyncClient::OnMessage(NodeId from, const MessagePtr& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  const ClientReply* reply = nullptr;
  const client::ReplyKind kind = session_.OnReply(from, *msg, &reply);
  if (kind == client::ReplyKind::kDone) {
    reply_code_ = reply->code;
    reply_value_ = reply->value;
  } else if (kind != client::ReplyKind::kRedirect) {
    return;
  }
  wake_ = kind;
  cv_.notify_all();
}

Result<std::string> SyncClient::Execute(OpType op, const std::string& key,
                                        const std::string& value,
                                        TimeNs timeout) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout);
  std::unique_lock<std::mutex> lock(mu_);
  session_.Begin(
      Command{op, key, value, env_->self(), session_.next_seq(), {}});
  wake_ = client::ReplyKind::kIgnored;

  for (;;) {
    const NodeId target = session_.Target(env_->rng());
    MessagePtr request = session_.Request();
    lock.unlock();
    env_->Send(target, std::move(request));
    lock.lock();
    // Per-attempt wait; overall bounded by the deadline.
    const auto attempt_end =
        std::chrono::steady_clock::now() +
        std::chrono::nanoseconds(kAttemptTimeout);
    if (!cv_.wait_until(lock, std::min(deadline, attempt_end), [this]() {
          return wake_ != client::ReplyKind::kIgnored;
        })) {
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::Timeout("no reply for " + key);
      }
      session_.NoteSilence();
      continue;
    }
    if (wake_ == client::ReplyKind::kRedirect) {
      wake_ = client::ReplyKind::kIgnored;
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      lock.lock();
      continue;
    }
    if (reply_code_ != StatusCode::kOk) {
      return Status::Internal(std::string(StatusCodeName(reply_code_)));
    }
    return reply_value_;
  }
}

}  // namespace pig::runtime
