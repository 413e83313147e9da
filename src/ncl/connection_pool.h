// NclConnectionPool: the client-side half of the pooled multi-tenant NCL
// fabric (DESIGN.md §14). Many SplitFs / NclClient instances co-located on
// one application node share a bounded set of queue pairs per remote peer
// instead of opening one QP per (tenant, peer slot): a node hosting
// thousands of tenants on a handful of pooled peers keeps O(peers x
// qps_per_peer) QPs open, not O(tenants x peers).
//
// A tenant obtains a PooledQp handle via Connect(remote). The handle mirrors
// the QueuePair posting/polling interface and is pinned to one *lane* (one
// underlying QueuePair) for its whole life, so the per-slot send-queue
// ordering the replication protocol relies on (§4.4) is preserved: a
// tenant's WRs complete on the peer in the tenant's post order. Completions
// from a shared lane are demultiplexed by wr_id back to the owning handle.
//
// Failure semantics on a shared lane: an ibverbs QP that takes a WR error
// flushes every queued WR, including innocent co-tenants'. The pool routes
// the first real error to the tenant that hit it unchanged, and rewrites the
// collateral kFlushError completions of *other* tenants to kRetryExceeded —
// the transient "target unreachable" classification — so innocents take the
// suspect/resurrection path instead of permanently demoting a healthy peer.
// A lane whose QP is in the error state is repaired (fresh warm QP) the next
// time any tenant Connects through it; undrained completions of the retired
// QP are still delivered to their owners.
//
// The pool also carves the node's shared in-flight budget into per-tenant
// append windows: per_client_window() shrinks as more clients register, so
// tenants cannot monopolize the shared send queues.
#ifndef SRC_NCL_CONNECTION_POOL_H_
#define SRC_NCL_CONNECTION_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/ncl/wr_route_map.h"
#include "src/obs/obs.h"
#include "src/rdma/fabric.h"

namespace splitft {

class PooledQp;

struct NclPoolOptions {
  // Lanes (underlying QueuePairs) kept per remote peer node. Connect
  // assigns handles round-robin across them; lanes are created lazily, so
  // a remote only ever contacted by one tenant holds one QP.
  int qps_per_peer = 4;
  // Shared in-flight append budget across every registered client on this
  // node. Each client's effective pipelining window is
  // shared_inflight_budget / clients (floored at 1) — the fairness carve.
  int shared_inflight_budget = 64;
};

class NclConnectionPool {
 public:
  // `local` is the application node every pooled QP originates from. `obs`
  // (optional) wires the "ncl.pool.*" instruments into a shared registry.
  NclConnectionPool(Fabric* fabric, NodeId local, NclPoolOptions options = {},
                    ObsContext obs = {});
  ~NclConnectionPool();

  NclConnectionPool(const NclConnectionPool&) = delete;
  NclConnectionPool& operator=(const NclConnectionPool&) = delete;

  // Hands out a handle pinned to one lane of `remote`, creating the lane if
  // the round-robin lands on one that does not exist yet. The first QP to a
  // remote pays the cold connection handshake; subsequent lanes (and lane
  // repairs) multiplex the established connection state and are warm. Every
  // handle must be destroyed before the pool.
  std::unique_ptr<PooledQp> Connect(NodeId remote);

  // Fairness bookkeeping: NclClient registers on construction so the shared
  // in-flight budget can be carved evenly across co-located tenants.
  void RegisterClient();
  void UnregisterClient();
  int clients() const { return clients_; }
  // max(1, shared_inflight_budget / clients): the per-tenant append window
  // carve. Clients cap their own inflight_window with this.
  int per_client_window() const;

  NodeId local() const { return local_; }
  const NclPoolOptions& options() const { return options_; }

  // Live (non-retired) QPs currently open across all remotes; also the
  // "ncl.pool.qps_open" gauge.
  size_t open_qps() const;
  // Collateral kFlushError completions rewritten to kRetryExceeded for
  // innocent co-tenants of an errored lane.
  uint64_t flush_rewrites() const { return flush_rewrites_; }

 private:
  friend class PooledQp;

  // One underlying QueuePair plus the demux table for its undrained WRs
  // (wr_id -> owner handle id). Kept after retirement until drained. The
  // error fields live here, not on the lane: a retired QP still owes its
  // collateral flushes the rewrite even after the lane was repaired.
  struct LaneQp {
    std::unique_ptr<QueuePair> qp;
    WrRouteMap route;
    // First *real* (non-flush) WR error observed on this QP and the handle
    // that owns it: that tenant sees the true status, every other tenant's
    // flushes are rewritten to kRetryExceeded.
    bool has_real_error = false;
    uint64_t error_owner = 0;
  };

  // One send-queue lane of a remote. Handles pin to a lane; posts go to
  // `live`. An errored live QP moves to `retired` (completions still owed)
  // when the lane is repaired on the next Connect.
  struct Lane {
    LaneQp live;
    std::vector<LaneQp> retired;
  };

  struct Remote {
    std::vector<Lane> lanes;
    int next_lane = 0;
    // Any QP to this remote was ever established: later lanes multiplex the
    // connection state and skip the cold handshake.
    bool ever_connected = false;
  };

  // Per-handle completion state. Keyed by a monotonically increasing owner
  // id that is never reused, so a successor handle of the same tenant can
  // never receive a stale predecessor completion.
  struct Owner {
    NodeId remote = kInvalidNode;
    int lane = -1;
    std::deque<Completion> ready;
    // Armed by PooledQp::RequestNotify; dropped with the handle.
    std::function<void()> notify;
  };

  Lane* LaneOf(NodeId remote, int lane_idx);
  // Polls every QP of the lane (retired first: their completions are
  // older), routing each completion to its owner's ready queue and applying
  // the flush-rewrite rule. Fully drained retired QPs are destroyed.
  void DrainLane(Lane* lane);
  void DrainLaneQp(LaneQp* lq);
  // PooledQp backends.
  bool Poll(uint64_t owner, Completion* out);
  size_t OwnerOutstanding(uint64_t owner) const;
  void ReleaseOwner(uint64_t owner);
  // Arms `owner`'s notification and, through it, the lane's live QP; the
  // lane's notification routes its completions and fires every armed owner
  // that got one.
  void ArmNotify(uint64_t owner, std::function<void()> fn);
  void OnLaneNotify(NodeId remote, int lane_idx);
  void UpdateGauges();

  Fabric* fabric_;
  NodeId local_;
  NclPoolOptions options_;
  std::map<NodeId, Remote> remotes_;
  std::map<uint64_t, Owner> owners_;
  uint64_t next_owner_ = 1;
  int clients_ = 0;
  uint64_t flush_rewrites_ = 0;

  ObsContext obs_;
  Counter* c_cold_connects_;
  Counter* c_warm_connects_;
  Counter* c_lane_repairs_;
  Counter* c_flush_rewrites_;
  Gauge* g_qps_open_;
  Gauge* g_clients_;
};

// A tenant's pinned handle onto one pooled lane. Mirrors the QueuePair
// posting/polling surface so NclFile's peer slots are agnostic to pooling.
// Destroying the handle unregisters its completion routes: in-flight WRs
// still execute on the peer (one-sided RDMA semantics are unchanged) but
// their completions are dropped, exactly like destroying a private QP.
class PooledQp {
 public:
  ~PooledQp();

  PooledQp(const PooledQp&) = delete;
  PooledQp& operator=(const PooledQp&) = delete;

  NodeId remote() const { return remote_; }

  uint64_t PostWrite(RKey rkey, uint64_t remote_offset, std::string_view data);
  // Allocation-free chain post (the NCL append hot path); `ids_out` must
  // hold `count` slots. See QueuePair::PostWriteChain.
  void PostWriteChain(const QueuePair::WriteOp* ops, size_t count,
                      uint64_t* ids_out);
  std::vector<uint64_t> PostWriteBatch(std::vector<QueuePair::WriteOp> ops);
  uint64_t PostRead(RKey rkey, uint64_t remote_offset, uint64_t len);
  bool PollCq(Completion* out);
  // See QueuePair::RequestNotify: `fn` runs once, when a completion for
  // this handle is ready (at once if one already is). Other tenants'
  // completions on the shared lane do not fire it.
  void RequestNotify(std::function<void()> fn);

  // WRs this handle posted whose completions have not been polled yet.
  size_t Outstanding() const;
  // The pinned lane's live QP took an error (possibly another tenant's).
  bool in_error_state() const;

 private:
  friend class NclConnectionPool;
  PooledQp(NclConnectionPool* pool, NodeId remote, int lane, uint64_t owner);
  QueuePair* qp() const;

  NclConnectionPool* pool_;
  NodeId remote_;
  int lane_;
  uint64_t owner_;
};

}  // namespace splitft

#endif  // SRC_NCL_CONNECTION_POOL_H_
