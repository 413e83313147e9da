#include "src/ncl/connection_pool.h"

#include <utility>

namespace splitft {

NclConnectionPool::NclConnectionPool(Fabric* fabric, NodeId local,
                                     NclPoolOptions options, ObsContext obs)
    : fabric_(fabric),
      local_(local),
      options_(options),
      obs_(obs),
      c_cold_connects_(obs.counter("ncl.pool.cold_connects")),
      c_warm_connects_(obs.counter("ncl.pool.warm_connects")),
      c_lane_repairs_(obs.counter("ncl.pool.lane_repairs")),
      c_flush_rewrites_(obs.counter("ncl.pool.flush_rewrites")),
      g_qps_open_(obs.gauge("ncl.pool.qps_open")),
      g_clients_(obs.gauge("ncl.pool.clients")) {
  if (options_.qps_per_peer < 1) {
    options_.qps_per_peer = 1;
  }
  if (options_.shared_inflight_budget < 1) {
    options_.shared_inflight_budget = 1;
  }
}

NclConnectionPool::~NclConnectionPool() = default;

void NclConnectionPool::RegisterClient() {
  clients_++;
  ObsSet(g_clients_, clients_);
}

void NclConnectionPool::UnregisterClient() {
  if (clients_ > 0) {
    clients_--;
  }
  ObsSet(g_clients_, clients_);
}

int NclConnectionPool::per_client_window() const {
  int clients = clients_ < 1 ? 1 : clients_;
  int window = options_.shared_inflight_budget / clients;
  return window < 1 ? 1 : window;
}

size_t NclConnectionPool::open_qps() const {
  size_t open = 0;
  for (const auto& [node, remote] : remotes_) {
    for (const Lane& lane : remote.lanes) {
      if (lane.live.qp != nullptr) {
        open++;
      }
      open += lane.retired.size();
    }
  }
  return open;
}

std::unique_ptr<PooledQp> NclConnectionPool::Connect(NodeId remote_id) {
  Remote& remote = remotes_[remote_id];
  int lane_idx = remote.next_lane % options_.qps_per_peer;
  remote.next_lane = (remote.next_lane + 1) % options_.qps_per_peer;
  if (static_cast<int>(remote.lanes.size()) <= lane_idx) {
    remote.lanes.resize(lane_idx + 1);
  }
  Lane& lane = remote.lanes[lane_idx];

  if (lane.live.qp == nullptr) {
    // First QP on this lane. The first connection to the remote pays the
    // cold handshake; further lanes multiplex it.
    bool warm = remote.ever_connected;
    lane.live.qp =
        std::make_unique<QueuePair>(fabric_, local_, remote_id, warm);
    remote.ever_connected = true;
    ObsAdd(warm ? c_warm_connects_ : c_cold_connects_);
  } else if (lane.live.qp->in_error_state()) {
    // Repair: retire the errored QP (its undrained completions are still
    // owed to their owners) and put a fresh warm QP in its place.
    DrainLaneQp(&lane.live);
    if (!lane.live.route.empty()) {
      lane.retired.push_back(std::move(lane.live));
    }
    lane.live = LaneQp{};
    lane.live.qp =
        std::make_unique<QueuePair>(fabric_, local_, remote_id, /*warm=*/true);
    ObsAdd(c_lane_repairs_);
    ObsAdd(c_warm_connects_);
  } else {
    ObsAdd(c_warm_connects_);
  }

  uint64_t owner = next_owner_++;
  Owner& o = owners_[owner];
  o.remote = remote_id;
  o.lane = lane_idx;
  UpdateGauges();
  return std::unique_ptr<PooledQp>(
      new PooledQp(this, remote_id, lane_idx, owner));
}

NclConnectionPool::Lane* NclConnectionPool::LaneOf(NodeId remote, int lane_idx) {
  auto it = remotes_.find(remote);
  if (it == remotes_.end() ||
      lane_idx >= static_cast<int>(it->second.lanes.size())) {
    return nullptr;
  }
  return &it->second.lanes[lane_idx];
}

void NclConnectionPool::DrainLaneQp(LaneQp* lq) {
  if (lq->qp == nullptr) {
    return;
  }
  Completion c;
  while (lq->qp->PollCq(&c)) {
    uint64_t owner = lq->route.Take(c.wr_id);
    // Error accounting: the first real (non-flush) error belongs to the
    // tenant that hit it; collateral flushes of *other* tenants queued
    // behind it are rewritten to the transient classification so they
    // resurrect the shared peer instead of demoting it (DESIGN.md §14).
    // Recorded even when the hit tenant's handle is already gone (owner 0
    // never matches a live owner, so every survivor gets the rewrite).
    if (c.status != WcStatus::kSuccess && c.status != WcStatus::kFlushError &&
        !lq->has_real_error) {
      lq->has_real_error = true;
      lq->error_owner = owner;
    }
    if (owner == 0) {
      continue;  // owner handle was destroyed; completion dies here
    }
    auto oit = owners_.find(owner);
    if (oit == owners_.end()) {
      continue;
    }
    if (c.status == WcStatus::kFlushError && lq->has_real_error &&
        owner != lq->error_owner) {
      c.status = WcStatus::kRetryExceeded;
      flush_rewrites_++;
      ObsAdd(c_flush_rewrites_);
    }
    oit->second.ready.push_back(std::move(c));
  }
}

void NclConnectionPool::DrainLane(Lane* lane) {
  // Retired QPs first: their WRs were posted before anything on the live
  // QP, so their completions surface to owners in post order.
  for (LaneQp& lq : lane->retired) {
    DrainLaneQp(&lq);
  }
  DrainLaneQp(&lane->live);
  bool gced = false;
  for (size_t i = lane->retired.size(); i > 0; --i) {
    LaneQp& lq = lane->retired[i - 1];
    if (lq.route.empty()) {
      lane->retired.erase(lane->retired.begin() + (i - 1));
      gced = true;
    }
  }
  if (gced) {
    UpdateGauges();
  }
}

bool NclConnectionPool::Poll(uint64_t owner, Completion* out) {
  auto oit = owners_.find(owner);
  if (oit == owners_.end()) {
    return false;
  }
  Lane* lane = LaneOf(oit->second.remote, oit->second.lane);
  if (lane != nullptr) {
    DrainLane(lane);
  }
  std::deque<Completion>& ready = oit->second.ready;
  if (ready.empty()) {
    return false;
  }
  *out = std::move(ready.front());
  ready.pop_front();
  return true;
}

size_t NclConnectionPool::OwnerOutstanding(uint64_t owner) const {
  auto oit = owners_.find(owner);
  if (oit == owners_.end()) {
    return 0;
  }
  size_t outstanding = oit->second.ready.size();
  auto rit = remotes_.find(oit->second.remote);
  if (rit == remotes_.end() ||
      oit->second.lane >= static_cast<int>(rit->second.lanes.size())) {
    return outstanding;
  }
  const Lane& lane = rit->second.lanes[oit->second.lane];
  outstanding += lane.live.route.CountOwner(owner);
  for (const LaneQp& lq : lane.retired) {
    outstanding += lq.route.CountOwner(owner);
  }
  return outstanding;
}

void NclConnectionPool::ReleaseOwner(uint64_t owner) {
  auto oit = owners_.find(owner);
  if (oit == owners_.end()) {
    return;
  }
  Lane* lane = LaneOf(oit->second.remote, oit->second.lane);
  if (lane != nullptr) {
    lane->live.route.DropOwner(owner);
    for (LaneQp& lq : lane->retired) {
      lq.route.DropOwner(owner);
    }
    for (size_t i = lane->retired.size(); i > 0; --i) {
      if (lane->retired[i - 1].route.empty()) {
        lane->retired.erase(lane->retired.begin() + (i - 1));
      }
    }
  }
  owners_.erase(oit);
  UpdateGauges();
}

void NclConnectionPool::UpdateGauges() {
  ObsSet(g_qps_open_, static_cast<int64_t>(open_qps()));
}

// ------------------------------------------------------------- PooledQp --

void NclConnectionPool::ArmNotify(uint64_t owner, std::function<void()> fn) {
  Owner& o = owners_.at(owner);
  if (!o.ready.empty()) {
    fn();
    return;
  }
  o.notify = std::move(fn);
  Lane* lane = LaneOf(o.remote, o.lane);
  if (lane != nullptr && lane->live.qp != nullptr) {
    lane->live.qp->RequestNotify(
        [this, remote = o.remote, idx = o.lane] { OnLaneNotify(remote, idx); });
  }
}

void NclConnectionPool::OnLaneNotify(NodeId remote, int lane_idx) {
  Lane* lane = LaneOf(remote, lane_idx);
  if (lane == nullptr) {
    return;
  }
  DrainLane(lane);
  // Collect first: a notification may release handles (owners_ entries).
  std::vector<std::function<void()>> fire;
  bool armed = false;
  for (auto& [id, o] : owners_) {
    if (o.remote != remote || o.lane != lane_idx || !o.notify) {
      continue;
    }
    if (o.ready.empty()) {
      armed = true;
    } else {
      fire.push_back(std::move(o.notify));
      o.notify = nullptr;
    }
  }
  if (armed && lane->live.qp != nullptr) {
    lane->live.qp->RequestNotify(
        [this, remote, lane_idx] { OnLaneNotify(remote, lane_idx); });
  }
  for (std::function<void()>& fn : fire) {
    fn();
  }
}

PooledQp::PooledQp(NclConnectionPool* pool, NodeId remote, int lane,
                   uint64_t owner)
    : pool_(pool), remote_(remote), lane_(lane), owner_(owner) {}

PooledQp::~PooledQp() { pool_->ReleaseOwner(owner_); }

QueuePair* PooledQp::qp() const {
  NclConnectionPool::Lane* lane = pool_->LaneOf(remote_, lane_);
  return lane == nullptr ? nullptr : lane->live.qp.get();
}

uint64_t PooledQp::PostWrite(RKey rkey, uint64_t remote_offset,
                             std::string_view data) {
  NclConnectionPool::Lane* lane = pool_->LaneOf(remote_, lane_);
  uint64_t wr = lane->live.qp->PostWrite(rkey, remote_offset, data);
  lane->live.route.Add(wr, owner_);
  return wr;
}

void PooledQp::PostWriteChain(const QueuePair::WriteOp* ops, size_t count,
                              uint64_t* ids_out) {
  NclConnectionPool::Lane* lane = pool_->LaneOf(remote_, lane_);
  lane->live.qp->PostWriteChain(ops, count, ids_out);
  for (size_t i = 0; i < count; ++i) {
    lane->live.route.Add(ids_out[i], owner_);
  }
}

std::vector<uint64_t> PooledQp::PostWriteBatch(
    std::vector<QueuePair::WriteOp> ops) {
  std::vector<uint64_t> ids(ops.size(), 0);
  PostWriteChain(ops.data(), ops.size(), ids.data());
  return ids;
}

uint64_t PooledQp::PostRead(RKey rkey, uint64_t remote_offset, uint64_t len) {
  NclConnectionPool::Lane* lane = pool_->LaneOf(remote_, lane_);
  uint64_t wr = lane->live.qp->PostRead(rkey, remote_offset, len);
  lane->live.route.Add(wr, owner_);
  return wr;
}

bool PooledQp::PollCq(Completion* out) { return pool_->Poll(owner_, out); }

void PooledQp::RequestNotify(std::function<void()> fn) {
  pool_->ArmNotify(owner_, std::move(fn));
}

size_t PooledQp::Outstanding() const {
  return pool_->OwnerOutstanding(owner_);
}

bool PooledQp::in_error_state() const {
  QueuePair* q = qp();
  return q != nullptr && q->in_error_state();
}

}  // namespace splitft
