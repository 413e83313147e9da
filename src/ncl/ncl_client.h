// ncl-lib: the application-side NCL library (§4.2–§4.5).
//
// NclClient manages one application instance's ncl files. NclFile runs the
// one NCL protocol over the file's redundancy scheme (src/ncl/redundancy.h:
// replication is the identity code with k = 1 on 2f+1 lanes, erasure coding
// k data + m parity lanes):
//   * every application write becomes one ordered RDMA WRITE chain per
//     lane: the lane's chunk of the data, then the sequence-number header;
//   * a write is acknowledged once an ack quorum of lanes (f+1 replicas, or
//     the first k shards) have completed it *and every preceding write*;
//   * peer failures are detected via WR errors; the failed peer is replaced
//     with a fresh one, which is caught up from the local buffer *before*
//     the ap-map is updated (§4.5.2, Fig 7iii) — in the background while
//     the file keeps an ack quorum, inside the blocked append otherwise;
//   * recovery reads the headers from at least a quorum of peers, claims
//     the k-th largest sequence number (the maximum for replication),
//     rebuilds the file from k lane streams at or above it, and atomically
//     catches every reachable peer up before returning data to the
//     application (§4.5.1, Fig 7i–ii).
#ifndef SRC_NCL_NCL_CLIENT_H_
#define SRC_NCL_NCL_CLIENT_H_

#include <cstdint>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/controller/controller.h"
#include "src/obs/obs.h"
#include "src/ncl/connection_pool.h"
#include "src/ncl/ec.h"
#include "src/ncl/peer.h"
#include "src/ncl/peer_directory.h"
#include "src/ncl/redundancy.h"
#include "src/rdma/fabric.h"
#include "src/sim/retry.h"

namespace splitft {

struct NclConfig {
  std::string app_id = "app";
  // Failure budget f: each ncl file is replicated on n = 2f+1 log peers.
  int fault_budget = 1;
  // Content capacity reserved per ncl file (applications size their logs
  // via configuration; the paper's experiments use 60-100 MB logs).
  uint64_t default_capacity = 64ull << 20;
  // Prefetch the whole region from the recovery peer on recovery (Fig 11a).
  bool prefetch_on_recovery = true;
  // Ship a bytewise diff instead of the full contents during catch-up
  // (§4.5.1 optimization; ablation_catchup).
  bool diff_catchup = false;
  // Replace failed peers as soon as the failure is detected: in the
  // background while the file keeps an ack quorum (appends carry on), and
  // every dead slot at once when it does not. When false, a dead slot is
  // replaced only to regain a lost quorum, and only as many as that needs.
  bool eager_peer_replacement = true;
  // Bounded append pipelining: how many appends may be in flight (posted
  // but not yet majority-committed) before AppendAsync blocks. 1 keeps the
  // seed's fully synchronous behaviour — every append waits out its quorum
  // round before the next one posts. Larger windows overlap quorum rounds;
  // SQ ordering keeps the region log prefix-ordered regardless, so
  // recovery never observes a sequence gap (tested in ncl_test).
  int inflight_window = 8;
  // How many allocation candidates to try before giving up (§4.3: the
  // controller's availability is a hint; peers may reject).
  int allocation_attempts = 8;

  // Erasure-coded regions (DESIGN.md §16). When set, every ncl file is
  // striped as ec->k data + ec->m parity shards over k+m peers instead of
  // fully replicated on 2f+1, and an append is acknowledged on the *first
  // k* shard-header completions for it and every preceding append (late
  // binding — the slowest peers drop off the critical path). Durability is
  // f = m at (k+m)/k× memory instead of (f+1)×: k=2,m=2 gives f=2 at 2×
  // where replication needs 3×. EC files are append-only (positional
  // overwrite of committed bytes cannot be reconstructed column-
  // consistently from mixed-seq shards; Truncate is fine — it is
  // header-only). The geometry is validated against fault_budget and the
  // registered-peer count at client construction; see NclClient::status().
  std::optional<EcGeometry> ec = std::nullopt;

  // Shared connection pool (DESIGN.md §14). When set, this client draws its
  // peer QPs from the pool (shared with every co-located tenant on the same
  // node) and caps its effective inflight_window at the pool's per-client
  // carve of the shared in-flight budget. When null, the client constructs
  // a private pool — single-tenant behaviour is then identical to the
  // historical one-QP-per-slot layout. The pool must outlive the client and
  // be rooted at the same fabric node passed to the constructor.
  NclConnectionPool* pool = nullptr;

  // Unified transient-fault policy. The default (max_attempts = 1) keeps
  // the seed behaviour: every WR error, failed directory lookup, or
  // controller RPC failure is final. Raising max_attempts turns
  // kRetryExceeded WR errors into *suspect* slots that are resurrected
  // with exponential backoff until the policy is exhausted, retries
  // kTimedOut controller RPCs (outage windows), and retries unreachable
  // setup-process lookups — only after exhaustion is a peer demoted to
  // dead and replaced.
  RetryPolicy retry;
  // Seed for the client's deterministic RNG (backoff jitter). Campaigns
  // derive it from the schedule seed so failures reproduce exactly.
  uint64_t rng_seed = 0xC1A05EEDull;

  // Fault-injection switches reproducing the "subtle bugs" of §4.6. They
  // exist so tests and the model checker can demonstrate that the safe
  // orderings matter; never enable outside tests.
  bool unsafe_seq_before_data = false;
  // A quorum-repair join (started by a WaitFor that lost its ack quorum)
  // writes the ap-map naming its successors before posting their copy,
  // and the application "crashes" right after that write (the join ends
  // kAborted): the Fig 7(iii) window. Other joins are unaffected.
  bool unsafe_apmap_before_catchup = false;
  bool unsafe_skip_recovery_catchup = false;
  // Test hook: when >= 0, Record posts WRs to at most this many peers and
  // then returns kAborted without waiting — simulating the application
  // crashing mid-replication (the Fig 7i divergence).
  int test_crash_after_posting = -1;
};

// Fault-handling observability lives in the ObsContext registry/tracer,
// not in per-client structs: "ncl.client.*" counters (release_failures,
// suspect_retries, transient_recoveries, suffix_reposts,
// permanent_demotions, controller_rpc_retries, directory_lookup_retries,
// replacement_starts) and the "ncl.recover.*" phase spans (get_peers /
// connect / rdma_read / sync_peers — four contiguous windows summing to the
// end-to-end recovery latency). The old NclStats / RecoveryBreakdown
// compat shims are gone.

// Outcome of deleting an ncl file: peer-side Release is best effort (leaked
// regions are reclaimed by the epoch GC), so callers get the tally instead
// of a silently-swallowed failure.
struct DeleteReport {
  int peers_attempted = 0;  // reachable peers we issued Release to
  int peers_released = 0;
  int release_failures = 0;
  bool AllReleasesFailed() const {
    return peers_attempted > 0 && peers_released == 0;
  }
};

class NclFile;

class NclClient {
 public:
  // `node` is the application server's fabric address. `obs` (optional)
  // wires the client into the shared registry/tracer: "ncl.client.*"
  // counters plus "ncl.record" / "ncl.replace_slot" / "ncl.recover[.*]"
  // trace spans.
  NclClient(NclConfig config, Fabric* fabric, Controller* controller,
            PeerDirectory* directory, NodeId node, ObsContext obs = {});
  ~NclClient();

  NclClient(const NclClient&) = delete;
  NclClient& operator=(const NclClient&) = delete;

  // initialize() (§4.2): allocates regions on n fresh peers and records the
  // ap-map. Fails if fewer than n peers can grant the allocation.
  Result<std::unique_ptr<NclFile>> Create(const std::string& file,
                                          uint64_t capacity = 0);

  // recover() (§4.2): rebuilds the most up-to-date contents from the peers.
  // Fails kUnavailable when fewer than f+1 peers still hold the region —
  // NCL "correctly makes the file unavailable" (§4.2).
  Result<std::unique_ptr<NclFile>> Recover(const std::string& file);

  // Deletes an ncl file without recovering it first: releases the regions
  // on every reachable peer (best effort; the leak GC reclaims the rest)
  // and removes the ap-map entry. Returns the per-peer release tally;
  // errors only for control-plane failures (missing ap-map, controller
  // outage past the retry budget).
  Result<DeleteReport> DeleteWithReport(const std::string& file);

  // Status shim over DeleteWithReport. Partial Release failures stay OK
  // (they are best effort), but when *every* reachable peer refused the
  // Release the caller gets a non-fatal kUnavailable warning — the ap-map
  // entry is gone and the file deleted either way; the regions leak until
  // the epoch GC.
  Status Delete(const std::string& file);

  // ncl files this application had before a crash (from the controller).
  std::vector<std::string> ListFiles();

  // True if an ap-map entry exists for the file.
  bool Exists(const std::string& file);

  // Planned reconfiguration (DESIGN.md §13): moves every live region this
  // client has on `peer_name` (across all open ncl files) to a fresh peer.
  // Each move is a join whose target slot is still alive: the successor
  // takes the bulk copy with later appends queued behind it in SQ order,
  // and the ap-map names it once it holds every committed append. Appends
  // keep flowing throughout. A move cut short by another membership change
  // (a quorum loss) is skipped, not an error; if the source dies first,
  // the join completes as its replacement. Returns the first hard
  // failure, OkStatus otherwise.
  Status MigrateOffPeer(const std::string& peer_name);

  // Regions moved by completed slot migrations (planned drains).
  int regions_migrated() const { return regions_migrated_; }

  const NclConfig& config() const SPLITFT_LIFETIMEBOUND { return config_; }
  const ObsContext& obs() const SPLITFT_LIFETIMEBOUND { return obs_; }
  int peers_replaced() const { return peers_replaced_; }
  // The connection pool in use (shared or private; never null).
  NclConnectionPool* pool() const { return pool_; }

  // Construction-time validation outcome. Non-OK (kInvalidArgument) when
  // the EC geometry is malformed, cannot cover the fault budget (m < f),
  // or exceeds the number of registered log peers; Create/Recover return
  // this status instead of failing later at allocation time.
  const Status& status() const SPLITFT_LIFETIMEBOUND {
    return init_status_;
  }

 private:
  friend class NclFile;

  // Directory lookup that retries (under config.retry) while the peer's
  // setup process is momentarily unreachable, instead of treating the
  // first nullptr as a crash.
  LogPeer* LookupPeerWithRetry(const std::string& name);

  static bool RpcTimedOut(const Status& st) {
    return st.code() == StatusCode::kTimedOut;
  }
  template <typename T>
  static bool RpcTimedOut(const Result<T>& r) {
    return !r.ok() && r.status().code() == StatusCode::kTimedOut;
  }

  // Runs a controller RPC, retrying kTimedOut failures (outage windows)
  // under config.retry. Permanent failures (kUnavailable "not enough
  // peers", kNotFound, ...) are returned immediately.
  template <typename Fn>
  auto RetryControllerRpc(Fn&& fn) -> decltype(fn()) {
    auto r = fn();
    Simulation* sim = fabric_->sim();
    if (!RpcTimedOut(r) || sim->in_part()) {
      // A background step cannot wait out a backoff here (that runs
      // events); it gets the timeout and retries itself later
      // (NclFile::RetryStepLater).
      return r;
    }
    RetryState state(&config_.retry, sim->Now());
    while (RpcTimedOut(r) && state.ShouldRetry(sim->Now())) {
      ObsAdd(c_controller_rpc_retries_);
      sim->RunUntil(sim->Now() + state.NextBackoff(&rng_));
      r = fn();
    }
    return r;
  }

  NclConfig config_;
  // Width, quorum, lane layout and codec of every file (built once from
  // config_; validated into init_status_ by the constructor).
  Redundancy redundancy_;
  Status init_status_;
  Fabric* fabric_;
  Controller* controller_;
  PeerDirectory* directory_;
  NodeId node_;
  Rng rng_;
  // The connection pool QPs are drawn from: config_.pool when shared,
  // otherwise the private owned_pool_. Connection warmth (cold handshake
  // only for the first QP to a node) is tracked by the pool.
  std::unique_ptr<NclConnectionPool> owned_pool_;
  NclConnectionPool* pool_ = nullptr;
  int peers_replaced_ = 0;
  int regions_migrated_ = 0;
  // Open files, registration order (a vector, not a pointer-keyed set:
  // iteration order must not depend on heap addresses — determinism).
  // Maintained by NclFile's ctor/dtor; MigrateOffPeer walks it.
  std::vector<NclFile*> open_files_;

  ObsContext obs_;
  Counter* c_release_failures_;
  Counter* c_suspect_retries_;
  Counter* c_transient_recoveries_;
  Counter* c_permanent_demotions_;
  Counter* c_controller_rpc_retries_;
  Counter* c_directory_lookup_retries_;
  Counter* c_records_;
  Counter* c_record_bytes_;
  Counter* c_peers_replaced_;
  // Background replacements started (each one bumps the app epoch).
  Counter* c_replacement_starts_;
  Counter* c_suffix_reposts_;
  Counter* c_regions_migrated_;
  // Commit-watermark lag of the most-degraded slot.
  Gauge* g_degraded_;
  Gauge* g_inflight_;
  Histogram* h_record_ns_;
  Histogram* h_recover_ns_;
};

class NclFile {
 public:
  ~NclFile();

  NclFile(const NclFile&) = delete;
  NclFile& operator=(const NclFile&) = delete;

  const std::string& name() const SPLITFT_LIFETIMEBOUND { return name_; }
  uint64_t size() const { return length_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t seq() const { return seq_; }

  // record() (§4.2): appends at the current end of the log and blocks until
  // an ack quorum of peers committed it (AppendAsync + WaitFor).
  Status Append(std::string_view data);

  // Pipelined append: applies locally, posts the WRs to every alive peer,
  // and returns without waiting for the quorum round — unless the bounded
  // in-flight window (NclConfig::inflight_window) is full, in which case it
  // blocks until the oldest outstanding append commits. Errors discovered
  // while waiting out backpressure (majority loss, test-hook aborts)
  // surface here; otherwise they surface in WaitFor/Drain.
  Status AppendAsync(std::string_view data);

  // Blocks until every append with sequence number <= `seq` is committed on
  // an ack quorum of peers (clamped to the current tail). The committed
  // prefix is exactly what recovery is guaranteed to return.
  Status WaitFor(uint64_t seq);

  // Drains the whole in-flight window: WaitFor(seq()).
  Status Drain();

  // Highest sequence number known committed on a quorum (monotonic).
  uint64_t committed_seq() const { return committed_seq_; }
  // Appends posted but not yet known committed.
  uint64_t inflight() const { return seq_ - committed_seq_; }

  // Positional write for circular logs (SQLite-style reuse, Fig 7ii).
  Status Write(uint64_t offset, std::string_view data);

  // Reads from the local buffer (after recovery, from the recovered
  // contents — prefetched or fetched on demand per config).
  Result<std::string> Read(uint64_t offset, uint64_t len);

  // release() (§4.2): frees the regions on all peers and removes the
  // ap-map entry. The file ceases to exist in NCL.
  Status Delete();

  // Resets the logical content to empty without releasing regions — used
  // by circular-log applications on checkpoint (the file is reused).
  Status Truncate();

  // Number of peers currently considered alive for this file.
  int alive_peers() const;
  const std::vector<std::string>& peer_names() const SPLITFT_LIFETIMEBOUND {
    return peer_names_;
  }

 private:
  friend class NclClient;

  struct PeerSlot {
    std::string peer_name;
    LogPeer* peer = nullptr;  // may be null if unreachable by name
    NodeId node = kInvalidNode;
    RKey rkey = 0;
    std::unique_ptr<PooledQp> qp;
    bool alive = true;
    // Transient-fault handling: a slot whose WR failed with kRetryExceeded
    // under an active RetryPolicy is *suspect*, not dead. It is resurrected
    // (fresh QP + full-state repost) with exponential backoff until either
    // its header lands again (recovered) or the policy is exhausted
    // (demoted to dead and replaced). While suspect, qp == nullptr between
    // resurrection attempts and no new appends are posted to it.
    bool suspect = false;
    SimTime suspect_since = 0;
    SimTime next_retry_at = 0;
    std::optional<RetryState> retry;
    // Which lane of the redundancy scheme this slot holds (EC: 0..k-1 data,
    // k..k+m-1 parity). Stable across replacement and migration — the
    // successor peer takes over the same lane.
    uint32_t lane = 0;
    // Sequence number of the last write fully completed (header landed).
    uint64_t acked_seq = 0;
    // In-flight header WRs: (wr_id of the header WR, seq it commits).
    std::deque<std::pair<uint64_t, uint64_t>> inflight;
  };

  // One entry of the in-flight window: enough history to replay the
  // unacked suffix of a mid-window straggler from the local buffer, plus
  // the post timestamp for commit-latency accounting.
  struct WindowEntry {
    uint64_t seq;
    uint64_t offset;
    uint64_t len;
    bool truncate;
    SimTime posted_at;
    bool reported = false;  // commit already surfaced (span + histogram)
  };

  NclFile(NclClient* client, std::string name, uint64_t capacity);

  // The replication critical path, blocking: RecordAsync + WaitFor(seq_).
  Status Record(uint64_t offset, std::string_view data);

  // Applies the write locally, posts one WR chain (data + header, single
  // doorbell) per alive peer, then blocks only if the in-flight window is
  // full.
  Status RecordAsync(uint64_t offset, std::string_view data);

  // Polls every slot's CQ, and a migration successor's while its ap-map
  // write is out; returns true if anything progressed. Classifies WR
  // failures: transient ones mark the slot suspect, permanent ones demote
  // it to dead.
  bool PumpCompletions();
  // Drains `slot`'s CQ, retiring its in-flight WRs in order and advancing
  // acked_seq; sets `*progressed` if anything completed. Stops at the
  // first failed completion and returns its status.
  WcStatus PollSlot(PeerSlot* slot, bool* progressed);

  // ---- Commit watermark & window history ---------------------------------
  // The committed watermark is the quorum-th largest acked_seq among
  // alive slots, cached monotonically: once a prefix was quorum-durable
  // it stays committed even if the acking slots die later (their
  // replacements are caught up to the full tail before joining). While a
  // migration's ap-map write is out, its live source counts only up to
  // its successor's acked_seq.
  uint64_t ComputeCommittedSeq() const;
  // Raises committed_seq_, emits the per-append pipelined spans/histogram,
  // refreshes the inflight gauge, and prunes reported window history.
  void AdvanceCommitWatermark();
  void PruneWindow();
  // Reposts only the unacked suffix (slot->acked_seq, seq_] from the window
  // history as one WR chain. Returns false when the history no longer
  // covers the gap — the caller falls back to PostFullState.
  bool PostSuffix(PeerSlot* slot);

  // ---- Suspect-slot machinery (transient faults) -------------------------
  void OnSlotError(PeerSlot* slot, WcStatus status);
  void MarkSuspect(PeerSlot* slot);
  void DemoteSlot(PeerSlot* slot);
  // Posts a full-state repost (buffer + header) on a fresh QP; completions
  // flow through the regular inflight pump.
  void RepostSuspect(PeerSlot* slot);
  void PostFullState(PeerSlot* slot);
  // Fires due resurrection attempts; demotes slots whose deadline expired.
  // Returns true if any WRs were posted.
  bool MaybeRetrySuspects();
  // Earliest pending resurrection time across suspect slots, or -1.
  SimTime NextSuspectRetryAt() const;

  // ---- Joins: the one way a fresh peer enters the file (DESIGN.md §6) ---
  // Crash repair in the background, crash repair after a lost ack quorum,
  // repair during recovery and planned migration all run one join over
  // their target slots, in four steps:
  //   1. a detached step bumps the epoch and allocates and connects the
  //      successors (AllocateFreshSlots);
  //   2. at its end an event posts each successor's bulk copy of the buffer.
  //      From then on the successor is *joining*: RecordAsync posts every
  //      later append to it as well, queued behind the copy in SQ order;
  //   3. once each successor's copy landed and it holds every committed
  //      append, a detached ap-map write names the successors. Recovery
  //      may read either ap-map until it ends, so a live target counts
  //      toward the ack quorum only for appends its successor holds too;
  //   4. at that write's end they take over their slots, and only from
  //      then on count toward the ack quorum (ComputeCommittedSeq). A
  //      target still alive at this point is a migration source: its
  //      region is released.
  // One join runs per file at a time. Pending events are cancelled when
  // the join is abandoned or the file or its client goes away.
  struct Successor {
    size_t target = 0;  // index in slots_ of the slot it takes over
    PeerSlot slot;
    // Id of the bulk copy's header WR until it completes (and the
    // "ncl.catchup.bulk" span is recorded); then 0.
    uint64_t copy_header = 0;
  };
  struct Join {
    enum class Phase { kAllocating, kCopying, kInstalling };
    Phase phase = Phase::kAllocating;
    std::vector<size_t> targets;  // by index in slots_
    std::vector<Successor> successors;
    // Started by a WaitFor that lost its ack quorum: other blocked calls
    // wait on it instead of abandoning it.
    bool quorum_repair = false;
    SimTime started_at = 0;
    SimTime copy_posted_at = 0;
    // Outcome of the last detached step; once the join ended, its outcome:
    // OK when it installed a successor.
    Status status;
    // Controller-outage retries of the current step, 1 or 3
    // (config.retry).
    std::optional<RetryState> retry;
  };
  // Starts a join over `targets` (they must not be empty); no join may be
  // running. Waiters hold the returned handle; the join has ended once
  // join_ no longer points at it.
  std::shared_ptr<Join> StartJoin(const std::vector<PeerSlot*>& targets,
                                  bool quorum_repair);
  // Starts a background join of every dead slot, unless a join is already
  // running, the eager policy is off, or the last start found no spare
  // peer less than a backoff ago (replace_not_before_).
  void StartReplacement();
  // Pumps the simulation until `join` ends; returns its outcome.
  Status AwaitJoin(const std::shared_ptr<Join>& join);
  void AllocateSuccessors();
  void OnSuccessorsAllocated();
  // Step 2's progress: polls the successors' CQs, drops those whose
  // transfer failed, and starts step 3 once the rest are caught up —
  // otherwise waits for their next completion.
  void ProgressJoin();
  void InstallSuccessors();
  void OnInstalled();
  // A detached step cannot wait out a controller outage, so a step whose
  // RPC timed out runs again after the retry policy's backoff, counted as
  // a controller RPC retry. False when it did not time out or the policy
  // is exhausted.
  bool RetryStepLater(void (NclFile::*step)());
  // Ends the running join with `status`: cancels its pending event and
  // closes the QPs of successors that did not take over (their regions
  // leak until the epoch GC).
  void EndJoin(Status status);
  // EndJoin(kAborted): another membership change supersedes the join.
  void AbandonJoin();
  // Runs `part` as a Simulation::Detach part whose spans are roots and
  // schedules the member `then` at its end as the file's pending event.
  void RunDetached(const std::function<void()>& part, void (NclFile::*then)());
  // Planned migration of the live slot `index` (MigrateOffPeer): waits
  // until no join runs, then joins a fresh peer in the slot's place.
  Status MigrateSlot(size_t index);

  // ---- Multi-peer steps --------------------------------------------------
  // One peer's part of a step the client runs on several peers at once
  // (recovery fetch and catch-up): the slot it works on, the region its WRs
  // land in and the WRs it waits for. Legs start together and the step
  // ends with the slowest; a failed leg drops out without holding up the
  // others.
  struct Leg {
    PeerSlot* slot = nullptr;
    RKey target = 0;
    std::vector<uint64_t> wanted;  // WRs whose completions the leg awaits
    size_t done = 0;               // of `wanted`, completed so far
    std::string read_data;  // a READ's result (recovery fetch, diff)
    // Async span from posted_at to the leg's last completion, if set.
    const char* span = nullptr;
    SimTime posted_at = 0;
    Status status;
  };
  // Slots whose alive flag equals `alive`, in slot order, at most `limit`.
  std::vector<PeerSlot*> SlotsWhere(bool alive, size_t limit = SIZE_MAX);
  // Posts the slot's lane image of the buffer + header into the leg's
  // target region on its slot's QP, as an "ncl.catchup.bulk" leg.
  void PostBulkCatchUp(Leg* leg);
  // One wait for every leg's outstanding WRs. A WR error or a stalled
  // fabric fails just that leg.
  void AwaitLegs(std::vector<Leg>* legs);
  // Finds `count` fresh peers outside `exclude` and, on all of them at
  // once, allocates this file's slot region at epoch_ and connects a QP.
  // One GetPeers per round; candidates that turn out stale or reject (the
  // controller's availability is a hint, §4.3) are replaced in further
  // rounds, up to allocation_attempts. Returns the new slots — fewer than
  // `count` when peers run out, with the reason in `shortfall`.
  std::vector<PeerSlot> AllocateFreshSlots(size_t count,
                                           std::set<std::string> exclude,
                                           Status* shortfall);
  // Recovery catch-up (§4.5.1) of every slot in `slots` at once: each peer
  // stages a fresh (or, in diff mode, cloned) region, the recovered
  // contents are shipped to all of them together, and each commits with
  // the atomic mr-map switch. Slots whose leg failed are marked dead.
  void CatchUpViaStagedRegions(const std::vector<PeerSlot*>& slots);
  // Records `peers` (slot order is lane order) at epoch_.
  Status WriteApMap(const std::vector<std::string>& peers);
  void RefreshPeerNames();

  const Redundancy& scheme() const { return client_->redundancy_; }
  uint64_t SlotRegionBytes() const { return scheme().RegionBytes(capacity_); }
  // The data WR (slot's lane image of the buffer, if any) and header WR a
  // full-state copy into region `rkey` posts; the ops view `scratch`,
  // `header` and buffer_.
  std::vector<QueuePair::WriteOp> FullStateOps(const PeerSlot& slot,
                                               RKey rkey, std::string* scratch,
                                               char* header) const;
  // Refreshes the ncl.ec.degraded_stripes gauge: how far the most-degraded
  // slot trails the commit watermark (0 when all slots are caught up;
  // grows while a dead slot awaits replacement).
  void UpdateDegradedGauge();

  NclClient* client_;
  std::string name_;
  uint64_t capacity_;
  uint64_t epoch_ = 0;
  uint64_t seq_ = 0;
  uint64_t length_ = 0;
  // Highest seq known committed on a quorum; never regresses.
  uint64_t committed_seq_ = 0;
  // Recent appends, oldest first, covering at least (min alive acked, seq_].
  std::deque<WindowEntry> window_;
  std::string buffer_;  // local copy of the file contents
  std::vector<PeerSlot> slots_;
  std::vector<std::string> peer_names_;
  // Peers ever assigned to this file; Create uses it to pick n distinct
  // peers. A join only excludes *current* members (see AllocateSuccessors).
  std::set<std::string> ever_used_;
  bool deleted_ = false;
  // After a no-prefetch recovery, reads are served by per-call RDMA reads
  // from the recovery peer instead of the local buffer (Fig 11a variant).
  bool serve_reads_locally_ = true;
  int recovery_slot_ = -1;
  // The running join, if any, and its pending event (a Detach end or a
  // completion check; 0 when none is pending).
  std::shared_ptr<Join> join_;
  uint64_t join_event_ = 0;
  // A start that found no spare peer holds the next one off until
  // replace_not_before_, on the retry policy's backoff schedule (its
  // attempts in no_spare_retry_, reset once a start finds a successor).
  // A time checked at the next start rather than an event, so a cluster
  // without a spare still goes idle.
  std::optional<RetryState> no_spare_retry_;
  SimTime replace_not_before_ = 0;
};

}  // namespace splitft

#endif  // SRC_NCL_NCL_CLIENT_H_
