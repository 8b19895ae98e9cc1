#include "paxos/replica.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "common/logging.h"
#include "statemachine/batch.h"
#include "storage/storage.h"

namespace pig::paxos {

PaxosReplica::PaxosReplica(NodeId id, PaxosOptions options)
    : id_(id), options_(std::move(options)) {
  assert(options_.num_replicas > 0);
  assert(id_ < options_.num_replicas);
  if (!options_.quorum) {
    options_.quorum =
        std::make_shared<pig::MajorityQuorum>(options_.num_replicas);
  }
  assert(options_.quorum->Validate().ok());
  peers_.reserve(options_.num_replicas - 1);
  for (NodeId n = 0; n < options_.num_replicas; ++n) {
    if (n != id_) peers_.push_back(n);
  }
  storage_ = options_.storage;
  if (storage_ != nullptr) RecoverFromStorage();
}

PaxosReplica::~PaxosReplica() = default;

void PaxosReplica::OnStart() {
  // Initial start and post-crash recovery both land here. Demote to
  // follower; a live leader's heartbeat will keep us passive, otherwise
  // the election timer (or the bootstrap shortcut) takes over.
  role_ = Role::kFollower;
  pending_.clear();
  p1_tally_.reset();
  ResetBatchState();
  last_leader_contact_ = env_->Now();
  ArmElectionTimer();
  if (id_ == options_.bootstrap_leader && promised_.IsZero()) {
    StartElection();
  }
}

NodeId PaxosReplica::KnownLeader() const {
  if (role_ == Role::kLeader) return id_;
  return leader_hint_;
}

void PaxosReplica::TriggerElection() { StartElection(); }

// ---------------------------------------------------------------------------
// Dispatch

void PaxosReplica::OnMessage(NodeId from, const MessagePtr& msg) {
  switch (msg->type()) {
    case MsgType::kClientRequest:
      HandleClientRequest(from,
                          static_cast<const ClientRequest&>(*msg));
      return;
    case MsgType::kP1a:
    case MsgType::kP2a:
    case MsgType::kP3:
    case MsgType::kHeartbeat: {
      MessagePtr resp = HandleFanOutMessage(*msg);
      if (resp != nullptr) env_->Send(from, std::move(resp));
      return;
    }
    case MsgType::kP1b:
    case MsgType::kP2b:
      HandleResponse(*msg);
      return;
    case MsgType::kLogSyncRequest:
      HandleLogSyncRequest(from, static_cast<const LogSyncRequest&>(*msg));
      return;
    case MsgType::kLogSyncResponse:
      HandleLogSyncResponse(static_cast<const LogSyncResponse&>(*msg));
      return;
    case MsgType::kQuorumReadRequest:
      HandleQuorumRead(from, static_cast<const QuorumReadRequest&>(*msg));
      return;
    default:
      PIG_LOG(kWarn) << "replica " << id_ << ": unexpected message "
                     << msg->DebugString();
  }
}

MessagePtr PaxosReplica::HandleFanOutMessage(const Message& msg) {
  switch (msg.type()) {
    case MsgType::kP1a:
      return HandleP1a(static_cast<const P1a&>(msg));
    case MsgType::kP2a:
      return HandleP2a(static_cast<const P2a&>(msg));
    case MsgType::kP3:
      return HandleP3(static_cast<const P3&>(msg));
    case MsgType::kHeartbeat:
      return HandleHeartbeat(static_cast<const Heartbeat&>(msg));
    default:
      return nullptr;
  }
}

void PaxosReplica::HandleResponse(const Message& msg) {
  switch (msg.type()) {
    case MsgType::kP1b:
      HandleP1b(static_cast<const P1b&>(msg));
      return;
    case MsgType::kP2b:
      HandleP2b(static_cast<const P2b&>(msg));
      return;
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// Communication layer (direct Paxos; PigPaxos overrides FanOut)

void PaxosReplica::FanOut(MessagePtr msg, bool expects_response) {
  (void)expects_response;
  for (NodeId peer : peers_) env_->Send(peer, msg);
}

// ---------------------------------------------------------------------------
// Follower side

void PaxosReplica::NoteLeaderContact(const Ballot& ballot) {
  last_leader_contact_ = env_->Now();
  if (ballot.node != id_) leader_hint_ = ballot.node;
}

MessagePtr PaxosReplica::HandleP1a(const P1a& msg) {
  auto resp = std::make_shared<P1b>();
  resp->sender = id_;
  if (msg.ballot >= promised_) {
    if (msg.ballot > promised_ && role_ != Role::kFollower) {
      StepDown(msg.ballot);
    }
    promised_ = msg.ballot;
    NoteLeaderContact(msg.ballot);
    // The promise must be durable before the P1b leaves: a crashed
    // acceptor that forgot it could promise a lower ballot on restart.
    PersistPromise();
    SyncWal();
    resp->ballot = msg.ballot;
    resp->ok = true;
    resp->commit_index = CommitIndex();
    for (auto& [slot, entry] : log_.Range(msg.commit_index + 1,
                                          log_.last_slot())) {
      resp->entries.push_back(
          AcceptedEntry{slot, entry.ballot, entry.command, entry.committed});
    }
  } else {
    resp->ballot = promised_;
    resp->ok = false;
  }
  return resp;
}

MessagePtr PaxosReplica::HandleP2a(const P2a& msg) {
  auto resp = MessagePool::Make<P2b>();
  resp->sender = id_;
  resp->slot = msg.slot;
  if (msg.ballot >= promised_) {
    if (msg.ballot > promised_ && role_ != Role::kFollower) {
      StepDown(msg.ballot);
    }
    promised_ = msg.ballot;
    NoteLeaderContact(msg.ballot);
    PersistPromise();
    ForEachCommand(msg.command, [&](const Command& cmd) {
      if (!cmd.IsWrite()) return;
      SlotId& mark = key_accept_watermark_[cmd.key];
      mark = std::max(mark, msg.slot);
    });
    // Re-delivered P2as (leader retries) skip the WAL: the same
    // (slot, ballot) pair carries the same command, already durable.
    const LogEntry* prev = log_.Get(msg.slot);
    const bool wal_dup =
        prev != nullptr && (prev->committed || prev->ballot == msg.ballot);
    Status s = log_.Accept(msg.slot, msg.ballot, msg.command);
    if (!s.ok()) {
      PIG_LOG(kError) << "replica " << id_ << ": accept failed: "
                      << s.ToString();
    } else if (!wal_dup && msg.slot >= log_.first_slot()) {
      PersistAccept(msg.slot, msg.ballot, msg.command);
    }
    AdvanceCommit(msg.commit_index, msg.ballot);
    ExecuteReady();
    // One barrier covers promise + accept + commit marker: the vote below
    // must not count toward a quorum until everything it implies is
    // durable. With batching one P2a carries a whole batch window, so
    // this is the group fsync from the issue.
    SyncWal();
    resp->ballot = msg.ballot;
    resp->ok = true;
  } else {
    resp->ballot = promised_;
    resp->ok = false;
  }
  return resp;
}

MessagePtr PaxosReplica::HandleP3(const P3& msg) {
  if (msg.ballot < promised_) return nullptr;
  promised_ = msg.ballot;
  NoteLeaderContact(msg.ballot);
  // Append-only, no barrier: P3/heartbeat carry no response whose
  // durability anyone depends on; the next quorum-visible reply syncs.
  PersistPromise();
  AdvanceCommit(msg.commit_index, msg.ballot);
  ExecuteReady();
  return nullptr;
}

MessagePtr PaxosReplica::HandleHeartbeat(const Heartbeat& msg) {
  if (msg.ballot < promised_) {
    // Tell the stale leader about the newer ballot so it steps down.
    auto nack = std::make_shared<P1b>();
    nack->sender = id_;
    nack->ballot = promised_;
    nack->ok = false;
    return nack;
  }
  if (msg.ballot > promised_ && role_ != Role::kFollower) {
    StepDown(msg.ballot);
  }
  promised_ = msg.ballot;
  NoteLeaderContact(msg.ballot);
  PersistPromise();
  AdvanceCommit(msg.commit_index, msg.ballot);
  ExecuteReady();
  return nullptr;
}

void PaxosReplica::AdvanceCommit(SlotId upto, const Ballot& leader_ballot) {
  if (upto == kInvalidSlot) return;
  for (SlotId s = CommitIndex() + 1; s <= upto; ++s) {
    const LogEntry* e = log_.Get(s);
    if (e == nullptr || (!e->committed && e->ballot != leader_ballot)) {
      // Gap or possibly-stale entry: ask the leader for the real values.
      MaybeRequestSync(upto);
      return;
    }
    if (!e->committed) log_.Commit(s);
  }
}

void PaxosReplica::MaybeRequestSync(SlotId target_ci) {
  NodeId leader = KnownLeader();
  if (leader == kInvalidNode || leader == id_) return;
  TimeNs now = env_->Now();
  // Hard rate limit: at most one outstanding sync per retry period, no
  // matter how far the target advances meanwhile — a lagging follower
  // must not turn the leader into a log-shipping hotspot.
  if (now - last_sync_request_ < options_.sync_retry_timeout) return;
  auto req = std::make_shared<LogSyncRequest>();
  req->sender = id_;
  req->from = CommitIndex() + 1;
  req->to = target_ci;
  env_->Send(leader, std::move(req));
  sync_requested_upto_ = target_ci;
  last_sync_request_ = now;
}

void PaxosReplica::HandleLogSyncRequest(NodeId from,
                                        const LogSyncRequest& req) {
  metrics_.log_syncs++;
  auto resp = std::make_shared<LogSyncResponse>();
  resp->ballot = promised_;
  resp->commit_index = CommitIndex();
  SlotId start = req.from;
  if (start < log_.first_slot()) {
    // The requested history was compacted: install a state-machine
    // snapshot as of our executed prefix, then ship entries above it.
    resp->snapshot_upto = log_.executed_upto();
    resp->snapshot = store_.DumpVersioned();
    // Dedup records travel with the snapshot: without them the restored
    // follower would re-apply a duplicate slot the donors skip, forking
    // the state machines. Emit in client order for determinism.
    std::map<NodeId, const ClientRecord*> ordered;
    for (const auto& [client, rec] : client_records_) {
      ordered.emplace(client, &rec);
    }
    for (const auto& [client, rec] : ordered) {
      resp->client_records.push_back(
          ClientSeqRecord{client, rec->seq, rec->value, rec->slot});
    }
    start = resp->snapshot_upto + 1;
  }
  // Bound one response; the follower re-requests the remainder.
  constexpr size_t kMaxEntriesPerSync = 4096;
  for (auto& [slot, entry] : log_.Range(start, req.to)) {
    if (!entry.committed) continue;
    resp->entries.push_back(
        AcceptedEntry{slot, entry.ballot, entry.command, true});
    if (resp->entries.size() >= kMaxEntriesPerSync) break;
  }
  env_->Send(from, std::move(resp));
}

void PaxosReplica::HandleLogSyncResponse(const LogSyncResponse& resp) {
  const bool installed =
      resp.has_snapshot() && resp.snapshot_upto > log_.executed_upto();
  if (installed) {
    store_.RestoreVersioned(resp.snapshot);
    for (const ClientSeqRecord& r : resp.client_records) {
      ClientRecord& rec = client_records_[r.client];
      if (r.seq > rec.seq) {
        rec.seq = r.seq;
        rec.value = r.value;
        rec.slot = r.slot;
      }
    }
    log_.FastForwardTo(resp.snapshot_upto);
    PIG_LOG(kInfo) << "replica " << id_ << ": installed snapshot upto slot "
                   << resp.snapshot_upto;
  }
  for (const AcceptedEntry& e : resp.entries) {
    if (!e.committed || e.slot < log_.first_slot()) continue;
    const LogEntry* prev = log_.Get(e.slot);
    const bool wal_dup = prev != nullptr && prev->committed;
    Status s = log_.CommitWithCommand(e.slot, e.ballot, e.command);
    if (!s.ok()) {
      PIG_LOG(kError) << "replica " << id_
                      << ": sync commit failed: " << s.ToString();
    } else if (!wal_dup) {
      PersistAccept(e.slot, e.ballot, e.command);
    }
  }
  // Allow an immediate follow-up request for the remainder.
  sync_requested_upto_ = kInvalidSlot;
  last_sync_request_ = 0;
  ExecuteReady();
  // An installed snapshot must be persisted: the WAL below snapshot_upto
  // was never written here, so only the snapshot file carries that state.
  if (installed) TakeSnapshot();
}

void PaxosReplica::HandleQuorumRead(NodeId from,
                                    const QuorumReadRequest& req) {
  auto reply = std::make_shared<QuorumReadReply>();
  reply->sender = id_;
  reply->read_id = req.read_id;
  reply->value = store_.Get(req.key);
  auto exec = key_exec_slot_.find(req.key);
  reply->version_slot =
      exec == key_exec_slot_.end() ? kInvalidSlot : exec->second;
  auto mark = key_accept_watermark_.find(req.key);
  reply->pending_write = mark != key_accept_watermark_.end() &&
                         mark->second > log_.executed_upto();
  env_->Send(from, std::move(reply));
}

// ---------------------------------------------------------------------------
// Elections

void PaxosReplica::StartElection() {
  role_ = Role::kCandidate;
  promised_ = Ballot(promised_.counter + 1, id_);
  metrics_.elections_started++;
  p1_tally_.emplace(options_.quorum->Phase1Size());
  p1_adopted_.clear();
  p1_max_slot_ = log_.last_slot();
  p1_peer_commit_max_ = kInvalidSlot;
  p1_peer_commit_holder_ = kInvalidNode;
  // Our own ballot must be durable before we count our own P1 vote.
  PersistPromise();
  SyncWal();
  p1_tally_->Ack(id_);
  PIG_LOG(kInfo) << "replica " << id_ << ": starting election, ballot "
                 << promised_.ToString();
  if (p1_tally_->Passed()) {
    BecomeLeader();
  } else {
    auto p1a = std::make_shared<P1a>();
    p1a->ballot = promised_;
    p1a->commit_index = CommitIndex();
    FanOut(std::move(p1a), /*expects_response=*/true);
  }
  ArmElectionTimer();  // retry with a higher ballot if this stalls
}

void PaxosReplica::HandleP1b(const P1b& msg) {
  env_->ChargeCpu(options_.vote_process_cost);
  if (!msg.ok) {
    if (msg.ballot > promised_) StepDown(msg.ballot);
    return;
  }
  if (role_ != Role::kCandidate || msg.ballot != promised_) return;
  if (msg.commit_index != kInvalidSlot &&
      msg.commit_index > p1_peer_commit_max_) {
    p1_peer_commit_max_ = msg.commit_index;
    p1_peer_commit_holder_ = msg.sender;
  }
  for (const AcceptedEntry& e : msg.entries) {
    p1_max_slot_ = std::max(p1_max_slot_, e.slot);
    auto [it, inserted] = p1_adopted_.emplace(e.slot, e);
    if (!inserted) {
      AcceptedEntry& cur = it->second;
      if (e.committed || (!cur.committed && e.ballot > cur.ballot)) {
        cur = e;
      }
    }
  }
  if (p1_tally_->Ack(msg.sender)) BecomeLeader();
}

void PaxosReplica::BecomeLeader() {
  role_ = Role::kLeader;
  leader_hint_ = id_;
  metrics_.elections_won++;
  pending_.clear();
  client_pending_.clear();
  PIG_LOG(kInfo) << "replica " << id_ << ": became leader, ballot "
                 << promised_.ToString();

  // Adopt the highest-ballot value for every open slot and re-propose it
  // under our ballot; plug gaps with no-ops — but only ABOVE the settled
  // prefix. Slots at or below a quorum member's reported commit index
  // already have chosen values, and with log compaction the acceptor
  // that voted for the chosen value may have compacted it, silently
  // omitting it from its P1b. Re-proposing whatever stale value (or
  // no-op) we do see for such a slot would choose a second, conflicting
  // value. Commit what we know is committed; recover the rest via state
  // transfer from the reporting peer, never by re-running Phase 2.
  const SlotId from = CommitIndex() + 1;
  const SlotId to = std::max(p1_max_slot_, log_.last_slot());
  const SlotId settled = std::max(CommitIndex(), p1_peer_commit_max_);
  bool need_prefix_sync = false;
  for (SlotId s = from; s <= to; ++s) {
    const LogEntry* local = log_.Get(s);
    bool have = local != nullptr;
    bool committed = have && local->committed;
    Ballot ballot = have ? local->ballot : Ballot::Zero();
    Command cmd = have ? local->command : Command::Noop();
    auto it = p1_adopted_.find(s);
    if (it != p1_adopted_.end()) {
      const AcceptedEntry& a = it->second;
      if (!have || a.committed || (!committed && a.ballot > ballot)) {
        cmd = a.command;
        committed = committed || a.committed;
        have = true;
      }
    }
    if (committed) {
      // Persist only newly-learned commands; locally-committed entries
      // are already durable from their original accept.
      const bool locally_durable = local != nullptr && local->committed;
      log_.CommitWithCommand(s, promised_, cmd);
      if (!locally_durable) PersistAccept(s, promised_, cmd);
      continue;
    }
    if (s <= settled) {
      need_prefix_sync = true;
      continue;
    }
    ProposeAt(s, cmd);
  }
  next_slot_ = std::max(next_slot_, to + 1);
  p1_adopted_.clear();
  p1_tally_.reset();
  if (need_prefix_sync) {
    prefix_sync_target_ = settled;
    prefix_sync_source_ = p1_peer_commit_holder_;
    prefix_sync_attempts_ = 0;
    metrics_.prefix_syncs++;
    PIG_LOG(kInfo) << "replica " << id_
                   << ": settled prefix has unknown slots, state transfer "
                      "upto slot "
                   << settled;
    RequestPrefixSync();
  }
  ExecuteReady();

  if (election_timer_ != kInvalidTimer) {
    env_->CancelTimer(election_timer_);
    election_timer_ = kInvalidTimer;
  }
  ArmHeartbeatTimer();
  ArmRetryTimer();
  OnLeadershipChange(true);
  // Announce leadership immediately so follower election timers reset.
  auto hb = std::make_shared<Heartbeat>();
  hb->ballot = promised_;
  hb->commit_index = CommitIndex();
  FanOut(std::move(hb), /*expects_response=*/false);
}

void PaxosReplica::StepDown(const Ballot& higher) {
  assert(higher > promised_ || role_ != Role::kFollower);
  PIG_LOG(kInfo) << "replica " << id_ << ": stepping down to ballot "
                 << higher.ToString();
  promised_ = std::max(promised_, higher);
  role_ = Role::kFollower;
  leader_hint_ = higher.node == id_ ? kInvalidNode : higher.node;
  pending_.clear();
  client_pending_.clear();
  p1_tally_.reset();
  p1_adopted_.clear();
  prefix_sync_target_ = kInvalidSlot;
  prefix_sync_source_ = kInvalidNode;
  prefix_sync_attempts_ = 0;
  // Queued-but-unproposed commands are abandoned; their clients retry
  // against the new leader (client_pending_ was just cleared).
  ResetBatchState();
  if (heartbeat_timer_ != kInvalidTimer) {
    env_->CancelTimer(heartbeat_timer_);
    heartbeat_timer_ = kInvalidTimer;
  }
  if (retry_timer_ != kInvalidTimer) {
    env_->CancelTimer(retry_timer_);
    retry_timer_ = kInvalidTimer;
  }
  last_leader_contact_ = env_->Now();
  ArmElectionTimer();
  OnLeadershipChange(false);
}

// ---------------------------------------------------------------------------
// Leader side

void PaxosReplica::HandleClientRequest(NodeId from,
                                       const ClientRequest& req) {
  if (role_ != Role::kLeader) {
    metrics_.redirects++;
    ReplyToClient(from, req.cmd.seq, StatusCode::kNotLeader, "",
                  kInvalidSlot);
    return;
  }
  Propose(req.cmd, from);
}

void PaxosReplica::Propose(const Command& cmd, NodeId client) {
  if (!options_.test_fault_no_client_dedup) {
    // Dedup: already executed?
    auto rec = client_records_.find(client);
    if (rec != client_records_.end() && cmd.seq <= rec->second.seq) {
      const ClientRecord& r = rec->second;
      ReplyToClient(client, cmd.seq, StatusCode::kOk,
                    cmd.seq == r.seq ? r.value : "", r.slot);
      return;
    }
    // Dedup: already in flight?
    auto pend = client_pending_.find(client);
    if (pend != client_pending_.end() && pend->second == cmd.seq) return;
    client_pending_[client] = cmd.seq;
  }

  metrics_.proposals++;
  if (!PipelineEngaged()) {
    ProposeAt(next_slot_++, cmd);
    return;
  }
  batch_queue_.push_back(cmd);
  MaybeFlushBatches(/*flush_partial=*/false);
}

// ---------------------------------------------------------------------------
// Batching/pipelining engine. Commands admitted by Propose() queue here;
// a slot is filled when batch_size commands are waiting (size trigger) or
// batch_timeout elapsed (time trigger), subject to at most pipeline_depth
// uncommitted slots in flight. Disabled (batch_size == pipeline_depth ==
// 1) the engine is bypassed entirely and proposals take the legacy
// immediate path above.

void PaxosReplica::MaybeFlushBatches(bool flush_partial) {
  // flushing_ breaks the ProposeAt -> instant CommitSlot -> re-enter
  // cycle a single-node cluster would otherwise recurse through; the
  // outer loop below observes the freed window and continues.
  if (role_ != Role::kLeader || batch_queue_.empty() || flushing_) return;
  flushing_ = true;
  const size_t depth = std::max<size_t>(1, options_.pipeline_depth);
  const size_t full = std::max<size_t>(1, options_.batch_size);
  while (!batch_queue_.empty() && pending_.size() < depth &&
         (flush_partial || batch_queue_.size() >= full)) {
    FlushBatch(std::min(full, batch_queue_.size()));
  }
  flushing_ = false;
  if (!batch_queue_.empty()) {
    if (pending_.size() >= depth &&
        (flush_partial || batch_queue_.size() >= full)) {
      // A flushable batch is waiting on the window; the commit that
      // frees a slot re-enters this function.
      metrics_.pipeline_stalls++;
    }
    ArmBatchTimer();
  }
}

void PaxosReplica::FlushBatch(size_t count) {
  std::vector<Command> cmds;
  cmds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    cmds.push_back(std::move(batch_queue_.front()));
    batch_queue_.pop_front();
  }
  metrics_.batches_proposed++;
  metrics_.batched_commands += count;
  ProposeAt(next_slot_++, BatchCommand::Wrap(std::move(cmds)));
}

void PaxosReplica::ResetBatchState() {
  batch_queue_.clear();
  if (batch_timer_ != kInvalidTimer) {
    env_->CancelTimer(batch_timer_);
    batch_timer_ = kInvalidTimer;
  }
}

void PaxosReplica::ArmBatchTimer() {
  if (batch_timer_ != kInvalidTimer) return;
  batch_timer_ =
      env_->SetTimer(options_.batch_timeout, [this]() { OnBatchTimeout(); });
}

void PaxosReplica::OnBatchTimeout() {
  batch_timer_ = kInvalidTimer;
  if (role_ != Role::kLeader || batch_queue_.empty()) return;
  const uint64_t before = metrics_.batches_proposed;
  MaybeFlushBatches(/*flush_partial=*/true);
  // The window may have been full; only a flush that happened counts.
  if (metrics_.batches_proposed > before) metrics_.batch_timeout_flushes++;
}

void PaxosReplica::ProposeAt(SlotId slot, const Command& cmd) {
  ForEachCommand(cmd, [&](const Command& c) {
    if (!c.IsWrite()) return;
    SlotId& mark = key_accept_watermark_[c.key];
    mark = std::max(mark, slot);
  });
  Status s = log_.Accept(slot, promised_, cmd);
  if (!s.ok()) {
    PIG_LOG(kError) << "replica " << id_ << ": self-accept failed: "
                    << s.ToString();
    return;
  }
  // The leader's own accept is a quorum vote like any other: durable
  // before it counts.
  PersistAccept(slot, promised_, cmd);
  SyncWal();
  Pending p;
  p.tally.emplace(options_.quorum->Phase2Size());
  p.proposed_at = env_->Now();
  p.tally->Ack(id_);
  bool instant = p.tally->Passed();  // single-node cluster
  pending_.emplace(slot, std::move(p));

  auto p2a = MessagePool::Make<P2a>();
  p2a->ballot = promised_;
  p2a->slot = slot;
  p2a->command = cmd;
  p2a->commit_index = CommitIndex();
  FanOut(std::move(p2a), /*expects_response=*/true);

  if (instant) CommitSlot(slot);
}

void PaxosReplica::HandleP2b(const P2b& msg) {
  env_->ChargeCpu(options_.vote_process_cost);
  if (!msg.ok) {
    if (msg.ballot > promised_) StepDown(msg.ballot);
    return;
  }
  if (role_ != Role::kLeader || msg.ballot != promised_) return;
  auto it = pending_.find(msg.slot);
  if (it == pending_.end()) return;  // already committed or superseded
  const bool duplicate =
      options_.test_fault_count_duplicate_votes &&
      it->second.tally->HasAck(msg.sender);
  if (it->second.tally->Ack(msg.sender)) {
    CommitSlot(msg.slot);
    return;
  }
  if (duplicate) {
    // Deliberate fault (conformance harness): the reverted dedup counts
    // this re-delivered vote under a synthetic voter id.
    const NodeId fake = kInvalidNode - 1 - static_cast<NodeId>(
                            fault_dup_votes_++ % 1024);
    if (it->second.tally->Ack(fake)) CommitSlot(msg.slot);
  }
}

void PaxosReplica::CommitSlot(SlotId slot) {
  pending_.erase(slot);
  Status s = log_.Commit(slot);
  if (!s.ok()) {
    PIG_LOG(kError) << "replica " << id_ << ": commit failed: "
                    << s.ToString();
    return;
  }
  metrics_.commits++;
  ExecuteReady();
  // A committed slot frees one pipeline-window seat.
  if (PipelineEngaged()) MaybeFlushBatches(/*flush_partial=*/false);
}

void PaxosReplica::ExecuteReady() {
  while (auto slot = log_.NextExecutable()) {
    const LogEntry* e = log_.Get(*slot);
    // Batched slots unroll so every client command keeps its own reply,
    // dedup record, and watermark bookkeeping.
    ForEachCommand(e->command,
                   [&](const Command& cmd) { ExecuteOne(cmd, *slot); });
    log_.MarkExecuted(*slot);
  }
  if (storage_ != nullptr && !recovering_) {
    PersistCommitMark();
    MaybeSnapshot();
  }
  // Compaction: keep a bounded window of executed history.
  const SlotId executed = log_.executed_upto();
  const auto window = static_cast<SlotId>(options_.compaction_window);
  if (executed - log_.first_slot() > 2 * window) {
    const SlotId cover = executed - window;
    if (storage_ != nullptr && !recovering_) {
      // Persist state before its history leaves memory: after CompactUpTo
      // the only copies of the covered slots are the snapshot and peers.
      TakeSnapshot();
    } else {
      // Covered history is now only recoverable via state transfer; the
      // dedup cache can shed cold reply payloads too (bounded memory).
      PruneClientRecords(cover);
    }
    log_.CompactUpTo(cover);
  }
}

void PaxosReplica::ExecuteOne(const Command& cmd, SlotId slot) {
  // Exactly-once execution: the same (client, seq) can legitimately land
  // in two committed slots — a new leader re-proposes an adopted entry
  // while the client's resend earns a fresh slot — and pipelining widens
  // that window. The state machine must apply it only once, or a write
  // re-applied after an interleaved overwrite resurrects a dead value.
  if (!cmd.IsNoop() && cmd.client != kInvalidNode) {
    ClientRecord& rec = client_records_[cmd.client];
    if (!options_.test_fault_no_client_dedup && cmd.seq <= rec.seq) {
      if (role_ == Role::kLeader) {
        // Duplicate of an executed command: reply from the record cache.
        ReplyToClient(cmd.client, cmd.seq, StatusCode::kOk,
                      cmd.seq == rec.seq ? rec.value : "", rec.slot);
      }
      return;
    }
    std::string value = store_.Apply(cmd);
    metrics_.executions++;
    if (cmd.IsWrite()) key_exec_slot_[cmd.key] = slot;
    rec.seq = cmd.seq;
    rec.value = value;
    rec.slot = slot;
    auto pend = client_pending_.find(cmd.client);
    if (pend != client_pending_.end() && pend->second <= cmd.seq) {
      client_pending_.erase(pend);
    }
    if (role_ == Role::kLeader) {
      ReplyToClient(cmd.client, cmd.seq, StatusCode::kOk, std::move(value),
                    slot);
    }
    return;
  }
  store_.Apply(cmd);
  metrics_.executions++;
  if (cmd.IsWrite()) key_exec_slot_[cmd.key] = slot;
}

void PaxosReplica::ReplyToClient(NodeId client, uint64_t seq,
                                 StatusCode code, std::string value,
                                 SlotId slot) {
  auto reply = std::make_shared<ClientReply>();
  reply->seq = seq;
  reply->code = code;
  reply->value = std::move(value);
  reply->leader_hint = KnownLeader();
  reply->slot = slot;
  env_->Send(client, std::move(reply));
}

// ---------------------------------------------------------------------------
// Durability (WAL + snapshots). All hooks are no-ops with storage_ null:
// that configuration is byte-identical to the pre-durability replica.

void PaxosReplica::RecoverFromStorage() {
  recovering_ = true;
  if (std::optional<storage::SnapshotData> snap = storage_->LoadSnapshot()) {
    store_.RestoreVersioned(snap->kv);
    for (const storage::ClientDedupEntry& r : snap->client_records) {
      ClientRecord& rec = client_records_[r.client];
      rec.seq = r.seq;
      rec.value = r.value;
      rec.slot = r.slot;
    }
    if (promised_ < snap->promised) promised_ = snap->promised;
    if (snap->upto != kInvalidSlot) log_.FastForwardTo(snap->upto);
    last_snapshot_upto_ = snap->upto;
  }
  SlotId commit_mark = log_.executed_upto();
  const size_t replayed =
      storage_->ReplayWal([&](const storage::WalRecord& rec) {
        switch (rec.type) {
          case storage::WalRecordType::kPromise:
            if (promised_ < rec.ballot) promised_ = rec.ballot;
            break;
          case storage::WalRecordType::kAccept: {
            if (rec.slot <= log_.executed_upto()) break;  // snapshot-covered
            Status s = log_.Accept(rec.slot, rec.ballot, rec.command);
            if (!s.ok()) {
              PIG_LOG(kWarn) << "replica " << id_ << ": replay accept slot "
                             << rec.slot << ": " << s.ToString();
              break;
            }
            ForEachCommand(rec.command, [&](const Command& cmd) {
              if (!cmd.IsWrite()) return;
              SlotId& mark = key_accept_watermark_[cmd.key];
              mark = std::max(mark, rec.slot);
            });
            break;
          }
          case storage::WalRecordType::kCommit:
            commit_mark = std::max(commit_mark, rec.slot);
            break;
        }
      });
  // Commit markers cover a contiguous prefix by construction; entries the
  // torn tail lost come back from peers via LogSync, so stop at the first
  // hole instead of trusting the marker blindly.
  for (SlotId s = CommitIndex() + 1; s <= commit_mark; ++s) {
    const LogEntry* e = log_.Get(s);
    if (e == nullptr) break;
    if (!e->committed) log_.Commit(s);
  }
  ExecuteReady();
  wal_promised_ = promised_;
  wal_commit_logged_ = CommitIndex();
  metrics_.wal_replayed_records += replayed;
  recovering_ = false;
  PIG_LOG(kInfo) << "replica " << id_ << ": wal-recovery replayed="
                 << replayed << " snapshot_upto=" << last_snapshot_upto_
                 << " recovered_commit=" << CommitIndex()
                 << " promised=" << promised_.ToString();
}

void PaxosReplica::PersistPromise() {
  if (storage_ == nullptr || recovering_) return;
  // wal_promised_ lags promised_ when a StepDown raised the ballot
  // without a durable write; the P1a echoing that same ballot later must
  // still hit the WAL before we respond.
  if (!(wal_promised_ < promised_)) return;
  storage_->Append(storage::WalRecord::Promise(promised_));
  wal_promised_ = promised_;
  wal_dirty_ = true;
}

void PaxosReplica::PersistAccept(SlotId slot, const Ballot& ballot,
                                 const Command& cmd) {
  if (storage_ == nullptr || recovering_) return;
  storage_->Append(storage::WalRecord::Accept(slot, ballot, cmd));
  wal_dirty_ = true;
}

void PaxosReplica::PersistCommitMark() {
  if (storage_ == nullptr || recovering_) return;
  const SlotId ci = CommitIndex();
  if (ci == kInvalidSlot || ci <= wal_commit_logged_) return;
  // Appended, never force-synced: a lost marker only costs a LogSync on
  // recovery, commits are re-learnable from peers.
  storage_->Append(storage::WalRecord::Commit(ci));
  wal_commit_logged_ = ci;
  wal_dirty_ = true;
}

void PaxosReplica::SyncWal() {
  if (storage_ == nullptr || !wal_dirty_) return;
  Status s = storage_->Sync();
  if (!s.ok()) {
    PIG_LOG(kError) << "replica " << id_
                    << ": wal sync failed: " << s.ToString();
  }
  wal_dirty_ = false;
}

void PaxosReplica::MaybeSnapshot() {
  if (options_.snapshot_interval == 0) return;
  const SlotId executed = log_.executed_upto();
  if (executed == kInvalidSlot) return;
  if (executed - last_snapshot_upto_ >=
      static_cast<SlotId>(options_.snapshot_interval)) {
    TakeSnapshot();
  }
}

void PaxosReplica::TakeSnapshot() {
  if (storage_ == nullptr || recovering_) return;
  const SlotId upto = log_.executed_upto();
  if (upto == kInvalidSlot || upto <= last_snapshot_upto_) return;
  // The snapshot claims everything executed; that history must be on
  // disk before segments covering it become prunable.
  SyncWal();
  storage::SnapshotData snap;
  snap.upto = upto;
  snap.promised = promised_;
  snap.kv = store_.DumpVersioned();
  std::map<NodeId, const ClientRecord*> ordered;
  for (const auto& [client, rec] : client_records_) {
    ordered.emplace(client, &rec);
  }
  for (const auto& [client, rec] : ordered) {
    snap.client_records.push_back(
        storage::ClientDedupEntry{client, rec->seq, rec->value, rec->slot});
  }
  Status s = storage_->WriteSnapshot(snap);
  if (!s.ok()) {
    PIG_LOG(kError) << "replica " << id_
                    << ": snapshot failed: " << s.ToString();
    return;
  }
  last_snapshot_upto_ = upto;
  if (wal_promised_ < promised_) wal_promised_ = promised_;  // snap holds it
  metrics_.snapshots_written++;
  PruneClientRecords(upto);
}

void PaxosReplica::PruneClientRecords(SlotId cover) {
  const auto horizon = static_cast<SlotId>(options_.client_record_horizon);
  if (horizon <= 0 || cover == kInvalidSlot) return;
  for (auto& [client, rec] : client_records_) {
    if (rec.slot == kInvalidSlot || rec.slot + horizon > cover) continue;
    // Keep the seq floor (still rejects stale retries, no double-apply),
    // drop the cached reply payload: a client that retries a request this
    // old gets an empty kOk, same as a stale-but-not-latest seq today.
    rec.value.clear();
    rec.value.shrink_to_fit();
    rec.slot = kInvalidSlot;
    metrics_.client_records_pruned++;
  }
}

void PaxosReplica::RequestPrefixSync() {
  if (prefix_sync_target_ == kInvalidSlot) return;
  if (role_ != Role::kLeader ||
      CommitIndex() >= prefix_sync_target_) {
    prefix_sync_target_ = kInvalidSlot;
    prefix_sync_source_ = kInvalidNode;
    prefix_sync_attempts_ = 0;
    return;
  }
  // First ask the quorum member that reported the high commit index; on
  // retries rotate through peers in case it crashed meanwhile.
  NodeId src = prefix_sync_source_;
  if ((prefix_sync_attempts_ > 0 || src == kInvalidNode || src == id_) &&
      !peers_.empty()) {
    src = peers_[prefix_sync_attempts_ % peers_.size()];
  }
  if (src == kInvalidNode || src == id_) return;
  prefix_sync_attempts_++;
  auto req = std::make_shared<LogSyncRequest>();
  req->sender = id_;
  req->from = CommitIndex() + 1;
  req->to = prefix_sync_target_;
  env_->Send(src, std::move(req));
}

// ---------------------------------------------------------------------------
// Timers

void PaxosReplica::ArmElectionTimer() {
  if (election_timer_ != kInvalidTimer) env_->CancelTimer(election_timer_);
  const TimeNs lo = options_.election_timeout_min;
  const TimeNs hi = options_.election_timeout_max;
  election_draw_ = lo + static_cast<TimeNs>(env_->rng().NextBounded(
                            static_cast<uint64_t>(hi - lo + 1)));
  election_timer_ =
      env_->SetTimer(election_draw_, [this]() { OnElectionTimeout(); });
}

void PaxosReplica::OnElectionTimeout() {
  election_timer_ = kInvalidTimer;
  if (role_ == Role::kLeader) return;
  const TimeNs idle = env_->Now() - last_leader_contact_;
  if (role_ == Role::kFollower && idle < election_draw_) {
    // Leader was heard recently; sleep for the remainder.
    if (election_timer_ != kInvalidTimer) env_->CancelTimer(election_timer_);
    election_timer_ = env_->SetTimer(election_draw_ - idle,
                                     [this]() { OnElectionTimeout(); });
    return;
  }
  StartElection();
}

void PaxosReplica::ArmHeartbeatTimer() {
  if (heartbeat_timer_ != kInvalidTimer) env_->CancelTimer(heartbeat_timer_);
  heartbeat_timer_ = env_->SetTimer(options_.heartbeat_interval,
                                    [this]() { OnHeartbeatTimeout(); });
}

void PaxosReplica::OnHeartbeatTimeout() {
  heartbeat_timer_ = kInvalidTimer;
  if (role_ != Role::kLeader) return;
  auto hb = std::make_shared<Heartbeat>();
  hb->ballot = promised_;
  hb->commit_index = CommitIndex();
  FanOut(std::move(hb), /*expects_response=*/false);
  ArmHeartbeatTimer();
}

void PaxosReplica::ArmRetryTimer() {
  if (retry_timer_ != kInvalidTimer) env_->CancelTimer(retry_timer_);
  retry_timer_ = env_->SetTimer(options_.propose_retry_timeout,
                                [this]() { OnRetryTimeout(); });
}

void PaxosReplica::OnRetryTimeout() {
  retry_timer_ = kInvalidTimer;
  if (role_ != Role::kLeader) return;
  RequestPrefixSync();  // re-ask (rotating donors) until the gap closes
  const TimeNs now = env_->Now();
  for (auto& [slot, pending] : pending_) {
    if (now - pending.proposed_at < options_.propose_retry_timeout) continue;
    const LogEntry* e = log_.Get(slot);
    if (e == nullptr) continue;
    pending.proposed_at = now;
    metrics_.propose_retries++;
    auto p2a = MessagePool::Make<P2a>();
    p2a->ballot = promised_;
    p2a->slot = slot;
    p2a->command = e->command;
    p2a->commit_index = CommitIndex();
    // Retries run in a later burst than the first proposal, so PigPaxos
    // re-picks random relays for them (Fig. 5b).
    FanOut(std::move(p2a), /*expects_response=*/true);
  }
  ArmRetryTimer();
}

}  // namespace pig::paxos
