#include "runtime/tcp_cluster.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer_queue.h"
#include "net/frame.h"
#include "runtime/reconnect_backoff.h"

namespace pig::runtime {

using std::chrono::steady_clock;

/// One locally hosted node: the actor's Env, driven by an epoll thread
/// over nonblocking sockets. There is no shared-memory shortcut between
/// local nodes; everything but a self-send goes through real sockets.
///
/// The actor's Env calls and the loop's own work run on the loop thread
/// only, so timers, self-mail, connections and the burst counter take no
/// lock (Env is driven by exactly one thread). Send is the exception: it
/// also accepts external threads (SyncClient) through a locked queue
/// that wakes the loop via eventfd.
class TcpCluster::TcpNode final : public Env {
 public:
  TcpNode(TcpCluster* cluster, NodeId id, std::unique_ptr<Actor> actor,
          uint16_t port);
  ~TcpNode() override;

  void Start();
  void Stop();

  uint16_t port() const { return port_; }
  Actor* actor() { return actor_.get(); }

  // Env.
  NodeId self() const override { return id_; }
  TimeNs Now() const override { return cluster_->Now(); }
  void Send(NodeId to, MessagePtr msg) override;
  TimerId SetTimer(TimeNs delay, std::function<void()> cb) override {
    return timers_.Add(Now() + std::max<TimeNs>(delay, 0), std::move(cb));
  }
  void CancelTimer(TimerId id) override { timers_.Cancel(id); }
  Rng& rng() override { return rng_; }
  uint64_t burst() const override { return burst_; }

 private:
  struct Conn {
    int fd = -1;
    NodeId peer = kInvalidNode;  // dialed peer, or hello-identified dialer
    bool outbound = false;
    bool connecting = false;  // nonblocking connect still in flight
    bool epollout = false;    // EPOLLOUT currently armed
    bool dirty = false;       // listed in dirty_ (unflushed output)
    net::FrameReader reader;
    std::vector<uint8_t> out;  // encoded frames awaiting write
    size_t out_pos = 0;
  };

  void LoopMain();
  void FireDueTimers();
  void DispatchSelfMail();
  void HandleEvent(const epoll_event& ev);
  void AcceptAll();
  /// Returns false when the connection was closed underneath the caller.
  bool HandleReadable(Conn* c);
  bool FlushConn(Conn* c);
  void MarkDirty(Conn* c);
  void FlushDirty();
  void OnFrame(Conn* c, const uint8_t* payload, size_t size);
  void SendOnLoop(NodeId to, MessagePtr msg);
  Conn* DialPeer(NodeId to);
  /// Registers a fresh socket with epoll (EPOLLOUT too while connecting).
  Conn* AddConn(int fd, bool connecting);
  void ScheduleReconnect(NodeId peer);
  ReconnectBackoff& BackoffFor(NodeId peer);
  void CloseConn(int fd);
  void SetEpollOut(Conn* c, bool want);
  void EpollCtl(int op, int fd, uint32_t events);
  void DrainExternalSends();
  int PollTimeoutMs();
  void WakeLoop();
  uint64_t NextRand();

  TcpCluster* cluster_;
  const NodeId id_;
  Rng rng_;
  uint64_t burst_ = 1;  // never 0 (Env::burst)
  TimerQueue timers_;
  std::unique_ptr<Actor> actor_;
  uint16_t port_ = 0;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int event_fd_ = -1;

  std::thread thread_;
  // Written by the loop thread as it starts, read by every Send caller
  // (external threads too), hence atomic.
  std::atomic<std::thread::id> loop_thread_id_;
  std::atomic<bool> alive_{false};

  // Self-sends, dispatched by LoopMain once the sending handler returns.
  std::deque<MessagePtr> self_mail_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;     // by fd
  std::unordered_map<NodeId, Conn*> outbound_;               // dialed
  std::unordered_map<NodeId, Conn*> inbound_route_;          // hello'd
  std::unordered_map<NodeId, ReconnectBackoff> backoff_;
  // Fds of conns with unflushed output, each listed once (Conn::dirty).
  // An fd whose conn was closed since is skipped, or, if the fd was
  // reused, resolves to a conn that is flushed only if it is dirty itself.
  std::vector<int> dirty_;

  std::mutex ext_mu_;
  std::deque<std::pair<NodeId, MessagePtr>> external_sends_;  // ext_mu_
  // Loop thread only: DrainExternalSends swaps the queue into it, so
  // both deques keep their storage from one drain to the next.
  std::deque<std::pair<NodeId, MessagePtr>> draining_;

  uint64_t rand_state_;
};

TcpCluster::TcpNode::TcpNode(TcpCluster* cluster, NodeId id,
                             std::unique_ptr<Actor> actor, uint16_t port)
    : cluster_(cluster),
      id_(id),
      rng_(cluster->seed_ ^ (0x9e3779b97f4a7c15ull * (id + 1))),
      actor_(std::move(actor)),
      rand_state_(cluster->seed_ ^ (0x2545f4914f6cdd1dull * (id + 1))) {
  actor_->Bind(this);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_ANY);
  sa.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    PIG_LOG(kError) << "node " << id_ << ": bind/listen on port " << port
                    << " failed: " << std::strerror(errno);
  }
  socklen_t len = sizeof(sa);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&sa), &len) ==
      0) {
    port_ = ntohs(sa.sin_port);
  }
  EpollCtl(EPOLL_CTL_ADD, listen_fd_, EPOLLIN);
  EpollCtl(EPOLL_CTL_ADD, event_fd_, EPOLLIN);
}

TcpCluster::TcpNode::~TcpNode() {
  Stop();  // closes the listen socket; the loop closed its connections
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void TcpCluster::TcpNode::Start() {
  alive_.store(true, std::memory_order_release);
  thread_ = std::thread([this]() { LoopMain(); });
}

void TcpCluster::TcpNode::Stop() {
  alive_.store(false, std::memory_order_release);
  WakeLoop();
  if (thread_.joinable()) thread_.join();
  // Like a killed process, a stopped node refuses new connections.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

uint64_t TcpCluster::TcpNode::NextRand() {
  rand_state_ ^= rand_state_ << 13;
  rand_state_ ^= rand_state_ >> 7;
  rand_state_ ^= rand_state_ << 17;
  return rand_state_;
}

void TcpCluster::TcpNode::WakeLoop() {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
}

void TcpCluster::TcpNode::Send(NodeId to, MessagePtr msg) {
  if (std::this_thread::get_id() == loop_thread_id_.load()) {
    SendOnLoop(to, std::move(msg));
    return;
  }
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    was_empty = external_sends_.empty();
    external_sends_.emplace_back(to, std::move(msg));
  }
  // A non-empty queue has already woken the loop, and the loop drains
  // the whole queue at once.
  if (was_empty) WakeLoop();
}

void TcpCluster::TcpNode::SendOnLoop(NodeId to, MessagePtr msg) {
  if (to == id_) {
    self_mail_.push_back(std::move(msg));
    return;
  }
  Conn* c = nullptr;
  auto out_it = outbound_.find(to);
  if (out_it != outbound_.end()) {
    c = out_it->second;
  } else if (cluster_->peers_.count(to) != 0) {
    c = DialPeer(to);  // nullptr while in reconnect backoff
  } else {
    // Not in the address map: a client that dialed us. Reply over its
    // most recent inbound connection.
    auto in_it = inbound_route_.find(to);
    if (in_it != inbound_route_.end()) c = in_it->second;
  }
  if (c == nullptr) return;  // fail-silent
  if (c->out.size() - c->out_pos > cluster_->options_.max_queued_bytes) {
    return;  // peer down long enough that its queue is full: drop
  }
  net::AppendFrame(*msg, &c->out);
  MarkDirty(c);
}

TcpCluster::TcpNode::Conn* TcpCluster::TcpNode::DialPeer(NodeId to) {
  auto at = backoff_.find(to);
  if (at != backoff_.end() && !at->second.CanAttempt(Now())) return nullptr;
  const PeerAddr& addr = cluster_->peers_.at(to);
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    ScheduleReconnect(to);
    return nullptr;
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    ScheduleReconnect(to);
    return nullptr;
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  const bool in_progress = rc < 0 && errno == EINPROGRESS;
  if (rc < 0 && !in_progress) {
    ::close(fd);
    ScheduleReconnect(to);
    return nullptr;
  }
  Conn* c = AddConn(fd, /*connecting=*/in_progress);
  c->peer = to;
  c->outbound = true;
  // First frame on the wire identifies us to the accepting side.
  net::NodeHello hello;
  hello.sender = id_;
  net::AppendFrame(hello, &c->out);
  outbound_[to] = c;
  // Loopback connects can complete synchronously: that's an established
  // handshake, so the backoff history (including any scheduled retry
  // time) is cleared here exactly like on the EPOLLOUT completion path.
  if (!in_progress) BackoffFor(to).NoteEstablished();
  MarkDirty(c);
  return c;
}

TcpCluster::TcpNode::Conn* TcpCluster::TcpNode::AddConn(int fd,
                                                        bool connecting) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  EpollCtl(EPOLL_CTL_ADD, fd, EPOLLIN | (connecting ? EPOLLOUT : 0u));
  std::unique_ptr<Conn>& conn = conns_[fd];
  conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->connecting = connecting;
  conn->epollout = connecting;
  return conn.get();
}

ReconnectBackoff& TcpCluster::TcpNode::BackoffFor(NodeId peer) {
  return backoff_
      .try_emplace(peer, cluster_->options_.reconnect_min,
                   cluster_->options_.reconnect_max)
      .first->second;
}

void TcpCluster::TcpNode::ScheduleReconnect(NodeId peer) {
  const TimeNs at = BackoffFor(peer).NoteFailure(Now(), NextRand());
  // A later failure or an established connection makes this retry stale;
  // DialPeer's CanAttempt gate then turns it into a no-op.
  timers_.Add(at, [this, peer]() {
    if (outbound_.count(peer) == 0) DialPeer(peer);
  });
}

void TcpCluster::TcpNode::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  if (c->outbound) {
    outbound_.erase(c->peer);
    // Queued output dies with the connection (a frame is never resumed
    // mid-way on a new socket); protocols re-drive via their own timers.
    ScheduleReconnect(c->peer);
  } else if (c->peer != kInvalidNode) {
    auto route = inbound_route_.find(c->peer);
    if (route != inbound_route_.end() && route->second == c) {
      inbound_route_.erase(route);
    }
  }
  conns_.erase(it);
}

void TcpCluster::TcpNode::SetEpollOut(Conn* c, bool want) {
  if (c->epollout == want) return;
  c->epollout = want;
  EpollCtl(EPOLL_CTL_MOD, c->fd, EPOLLIN | (want ? EPOLLOUT : 0u));
}

void TcpCluster::TcpNode::EpollCtl(int op, int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, op, fd, &ev);
}

bool TcpCluster::TcpNode::FlushConn(Conn* c) {
  while (c->out_pos < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_pos,
                             c->out.size() - c->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SetEpollOut(c, true);
      return true;
    }
    CloseConn(c->fd);
    return false;
  }
  c->out.clear();  // fully flushed: capacity is reused by later frames
  c->out_pos = 0;
  SetEpollOut(c, false);
  return true;
}

void TcpCluster::TcpNode::MarkDirty(Conn* c) {
  if (c->dirty) return;
  c->dirty = true;
  dirty_.push_back(c->fd);
}

void TcpCluster::TcpNode::FlushDirty() {
  for (const int fd : dirty_) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;  // closed since it was listed
    Conn* c = it->second.get();
    if (!c->dirty) continue;  // fd reused by a conn listed on its own
    c->dirty = false;
    if (c->connecting) continue;  // flushed on connect completion
    FlushConn(c);
  }
  dirty_.clear();
}

void TcpCluster::TcpNode::OnFrame(Conn* c, const uint8_t* payload,
                                  size_t size) {
  if (size >= 1 &&
      payload[0] == static_cast<uint8_t>(MsgType::kNodeHello)) {
    // Transport handshake: learn who dialed us; never reaches the actor.
    Decoder dec(payload + 1, size - 1);
    NodeId sender = kInvalidNode;
    if (dec.GetU32(&sender).ok() && dec.Done() && !c->outbound) {
      c->peer = sender;
      inbound_route_[sender] = c;  // latest connection wins
      // A peer listens before it dials, so its hello proves it is back:
      // redial it now, not at a backoff deadline that refused connects
      // to its dead incarnation may have pushed out to reconnect_max.
      if (outbound_.count(sender) == 0 &&
          cluster_->peers_.count(sender) != 0) {
        BackoffFor(sender).NoteEstablished();
        DialPeer(sender);
      }
    }
    return;
  }
  if (c->peer == kInvalidNode) {
    PIG_LOG(kError) << "node " << id_
                    << ": frame before NodeHello, dropping";
    return;
  }
  MessagePtr msg;
  Status s = DecodeMessage(payload, size, &msg);
  if (!s.ok()) {
    PIG_LOG(kError) << "node " << id_ << ": decode failed: " << s.ToString();
    return;
  }
  actor_->OnMessage(c->peer, msg);
}

bool TcpCluster::TcpNode::HandleReadable(Conn* c) {
  uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c->reader.Append(buf, static_cast<size_t>(n));
      const uint8_t* payload = nullptr;
      size_t size = 0;
      net::FrameReader::Result r;
      while ((r = c->reader.Next(&payload, &size)) ==
             net::FrameReader::Result::kFrame) {
        OnFrame(c, payload, size);
      }
      if (r == net::FrameReader::Result::kCorrupt) {
        PIG_LOG(kError) << "node " << id_
                        << ": corrupt frame stream, dropping connection";
        CloseConn(c->fd);
        return false;
      }
      // A short read drained the socket. Epoll is level-triggered, so
      // bytes that arrive meanwhile wake the loop again; reading on to
      // EAGAIN would cost one empty recv() per event.
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n == 0) {  // EOF: peer closed or crashed
      CloseConn(c->fd);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    CloseConn(c->fd);
    return false;
  }
}

void TcpCluster::TcpNode::AcceptAll() {
  int fd;
  while ((fd = ::accept4(listen_fd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC)) >= 0) {
    AddConn(fd, /*connecting=*/false);
  }
}

void TcpCluster::TcpNode::HandleEvent(const epoll_event& ev) {
  const int fd = ev.data.fd;
  if (fd == event_fd_) {
    uint64_t v = 0;
    while (::read(event_fd_, &v, sizeof(v)) > 0) {
    }
    return;
  }
  if (fd == listen_fd_) {
    AcceptAll();
    return;
  }
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // closed earlier in this batch
  Conn* c = it->second.get();
  if (c->connecting) {
    // A completing nonblocking connect can carry EPOLLOUT together with
    // EPOLLERR/EPOLLHUP in a single epoll event (the peer accepted and
    // then died, or sent a RST right after the handshake). SO_ERROR is
    // the ground truth and must be consulted BEFORE the error
    // short-circuit below: with SO_ERROR == 0 the handshake did
    // succeed, so the backoff resets — the old order skipped the reset
    // and left the retry delay pinned at reconnect_max even while the
    // peer's listener was reachable again.
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      CloseConn(fd);
      return;
    }
    c->connecting = false;
    BackoffFor(c->peer).NoteEstablished();
    if (!FlushConn(c)) return;
  }
  if ((ev.events & (EPOLLERR | EPOLLHUP)) != 0) {
    CloseConn(fd);
    return;
  }
  if ((ev.events & EPOLLOUT) != 0) {
    if (!FlushConn(c)) return;
  }
  if ((ev.events & EPOLLIN) != 0) HandleReadable(c);
}

void TcpCluster::TcpNode::DrainExternalSends() {
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    if (external_sends_.empty()) return;
    draining_.swap(external_sends_);
  }
  for (auto& [to, msg] : draining_) SendOnLoop(to, std::move(msg));
  draining_.clear();
}

int TcpCluster::TcpNode::PollTimeoutMs() {
  const TimeNs next = timers_.NextDeadline();
  if (next < 0) return 100;
  // Rounded up, so the loop never wakes just before a deadline.
  return static_cast<int>(std::clamp<TimeNs>(
      (next - Now() + kMillisecond - 1) / kMillisecond, 0, 100));
}

void TcpCluster::TcpNode::FireDueTimers() {
  const TimeNs now = Now();
  TimeNs when = 0;
  EventFn cb;
  // Callbacks may arm or cancel timers; each pop sees the queue as they
  // left it.
  while (timers_.PopDue(now, &when, &cb)) {
    cb();
    cb.reset();
  }
}

void TcpCluster::TcpNode::DispatchSelfMail() {
  while (!self_mail_.empty()) {
    const MessagePtr msg = std::move(self_mail_.front());
    self_mail_.pop_front();
    actor_->OnMessage(id_, msg);
  }
}

void TcpCluster::TcpNode::LoopMain() {
  loop_thread_id_.store(std::this_thread::get_id());
  actor_->OnStart();
  // Dial every peer the actor's first sends did not; from here on a
  // failed or dropped connection redials from a loop timer.
  for (const auto& [peer, addr] : cluster_->peers_) {
    (void)addr;
    if (peer != id_ && outbound_.count(peer) == 0) DialPeer(peer);
  }
  epoll_event events[64];
  while (alive_.load(std::memory_order_acquire)) {
    FireDueTimers();
    DrainExternalSends();
    DispatchSelfMail();
    FlushDirty();
    // Everything since the last flush was one burst (Env::burst).
    ++burst_;
    const int n = ::epoll_wait(epoll_fd_, events, 64, PollTimeoutMs());
    for (int i = 0; i < n; ++i) HandleEvent(events[i]);
  }
  // Close connections from the loop thread so peers see FIN promptly.
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
}

// ---------------------------------------------------------------------------

TcpCluster::TcpCluster(uint64_t seed, TcpOptions options)
    : seed_(seed), options_(options), epoch_(steady_clock::now()) {}

TcpCluster::~TcpCluster() { Stop(); }

void TcpCluster::AddActor(NodeId id, std::unique_ptr<Actor> actor,
                          uint16_t port) {
  auto node = std::make_unique<TcpNode>(this, id, std::move(actor), port);
  peers_[id] = PeerAddr{"127.0.0.1", node->port()};
  order_.push_back(id);
  nodes_.emplace(id, std::move(node));
}

void TcpCluster::AddPeer(NodeId id, const std::string& host,
                         uint16_t port) {
  peers_[id] = PeerAddr{host, port};
}

uint16_t TcpCluster::port(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? 0 : it->second->port();
}

TimeNs TcpCluster::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady_clock::now() - epoch_)
      .count();
}

void TcpCluster::Start() {
  epoch_ = steady_clock::now();
  running_.store(true);
  for (NodeId id : order_) nodes_[id]->Start();
}

void TcpCluster::Stop() {
  if (!running_.exchange(false)) return;
  for (auto& [_, node] : nodes_) node->Stop();
}

void TcpCluster::StopNode(NodeId id) {
  auto it = nodes_.find(id);
  if (it != nodes_.end()) it->second->Stop();
}

void TcpCluster::RestartNode(NodeId id, std::unique_ptr<Actor> actor) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  const uint16_t listen_port = it->second->port();
  it->second.reset();  // stops it, closing its listen socket for re-binding
  it->second = std::make_unique<TcpNode>(this, id, std::move(actor),
                                         listen_port);
  if (running_.load()) it->second->Start();
}

Actor* TcpCluster::actor(NodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second->actor();
}

}  // namespace pig::runtime
