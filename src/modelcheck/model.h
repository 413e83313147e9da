// Explicit-state model checker for the NCL replication and recovery
// protocols (§4.6). The model abstracts an append-only ncl file as a
// sequence of numbered writes; each write becomes two per-peer WR
// deliveries (data then sequence-number header — or the reverse under the
// injected bug). The checker enumerates every interleaving of:
//   * WR deliveries on each peer,
//   * application-issued writes (up to a bound),
//   * peer crashes and replacements (one dead member at a time, or every
//     dead member in one step),
//   * joins (DESIGN.md §6): a start transition hands a spare the snapshot
//     copy, with later writes queued behind it in SQ order; once it holds
//     everything acknowledged an install issues the ap-map write, and a
//     later transition lands it (writes, acks and crashes interleave in
//     between). The joined member is dead or demoted (a background
//     replacement) or still written to (a planned migration, §13). Plus
//     demotions — a member the app stops writing to (a partition
//     outlasting the retry deadline) that keeps its stale region and still
//     answers recovery,
//   * application crashes and recoveries (with every f+1-subset of
//     responding peers as the recovery quorum),
// and asserts the §4.6 correctness condition after every recovery:
// everything acknowledged (or previously recovered and externalized) is
// recovered again, in order and without holes.
//
// Re-introducible bugs from the paper, each of which the checker must
// catch:
//   * bug_seq_before_data    — header WR posted before the data WR;
//   * bug_apmap_before_catchup — replacement peer recorded in the ap-map
//                                before being caught up;
//   * bug_skip_recovery_catchup — lagging peers not caught up before the
//                                 recovered data is externalized;
//   * bug_migrate_stale_cutover — a planned migration installs its target
//                                 before the copy from the live source has
//                                 landed (DESIGN.md §13);
//   * bug_join_counts_before_install — a joining replacement counts toward
//                                 the ack quorum before its ap-map write;
//   * bug_migrate_source_acks_during_install — a migration's live source
//                                 counts toward the ack quorum on its own
//                                 while the ap-map write naming its target
//                                 is out.
#ifndef SRC_MODELCHECK_MODEL_H_
#define SRC_MODELCHECK_MODEL_H_

#include <cstdint>
#include <string>

namespace splitft {

struct McConfig {
  int fault_budget = 1;      // f; n = 2f+1 member peers
  int spare_peers = 1;       // replacement pool
  int max_writes = 3;        // writes the application issues
  int max_peer_crashes = 1;
  int max_app_crashes = 2;
  // Erasure coding (DESIGN.md §16): ec_k > 0 switches the model to k+m
  // striped logging — n = ec_k + ec_m member peers, each holding one shard
  // stream, and a write is acknowledged once ec_k member holders carry its
  // header (late binding; fault_budget is ignored for the member count).
  // Recovery reconstructs from the top-k claimed sequence numbers of all
  // responding holders and recovers exactly the k-th largest claim.
  int ec_k = 0;
  int ec_m = 0;
  // One-sided RDMA outlives its initiator: WRs posted before an app crash
  // still deliver to alive peers, which is what makes the late-binding
  // window (acked at k, parity still in flight) peer-crash tolerant. true
  // models that laggard delivery by draining queued WRs to alive members
  // at app-crash time; false drops them with the app — under which even
  // the correct ack rule shows the window is not m-fault tolerant, so
  // crash configs must keep it true. The q = k-1 mutant below is caught
  // with drain off and no peer crashes (the pure pigeonhole theorem).
  bool ec_drain_on_crash = true;
  // Planned reconfigurations: live-region migrations (drain) the app may
  // run concurrently with writes and crashes, each a join of a member the
  // app still writes to. 0 keeps the state space without them.
  int max_migrations = 0;
  // Background replacements (DESIGN.md §6): joins of a dead or demoted
  // member the app may start, each while the members it still writes to
  // hold an ack quorum. 0 keeps the state space without them and without
  // demotions; > 0 also lets a peer failure be a demotion (counted in
  // max_peer_crashes).
  int max_joins = 0;
  // Restricts crash repair to the replace-every-dead-member step, so a
  // test can show that step's bug_apmap_before_catchup twin is caught on
  // its own.
  bool batch_replacement_only = false;
  bool bug_seq_before_data = false;
  bool bug_apmap_before_catchup = false;
  bool bug_skip_recovery_catchup = false;
  bool bug_migrate_stale_cutover = false;
  // EC mutant: acknowledge a write at k-1 shard headers instead of k. One
  // short of reconstructable — the checker must report externalized-write
  // loss (the bug_ec_ack_below_k theorem test).
  bool bug_ec_ack_below_k = false;
  // Background-replacement mutant: the joining target counts toward the
  // ack quorum before the ap-map names it. If the app crashes before the
  // install, an acknowledged write sits on one member fewer than a quorum,
  // and a demoted member's stale region can outvote it at recovery.
  bool bug_join_counts_before_install = false;
  // Migration mutant: while the install's ap-map write is out, the live
  // source's header counts toward the ack quorum whether or not its target
  // has that write. If the write lands and the app crashes, an
  // acknowledged write can sit on fewer than a quorum of the new members.
  bool bug_migrate_source_acks_during_install = false;
  uint64_t max_states = 10'000'000;  // exploration cap
};

struct McResult {
  uint64_t states_explored = 0;
  uint64_t transitions = 0;
  bool violation_found = false;
  std::string violation;       // first violation's description
  bool exhausted = false;      // full bounded state space explored
};

// Runs a breadth-first exploration and returns the outcome.
McResult CheckNcl(const McConfig& config);

}  // namespace splitft

#endif  // SRC_MODELCHECK_MODEL_H_
