#include "src/ncl/ncl_client.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "src/common/logging.h"

namespace splitft {

// ----------------------------------------------------------------- Client --

NclClient::NclClient(NclConfig config, Fabric* fabric, Controller* controller,
                     PeerDirectory* directory, NodeId node, ObsContext obs)
    : config_(std::move(config)),
      redundancy_(config_.fault_budget, config_.ec),
      fabric_(fabric),
      controller_(controller),
      directory_(directory),
      node_(node),
      rng_(config_.rng_seed),
      obs_(obs),
      c_release_failures_(obs.counter("ncl.client.release_failures")),
      c_suspect_retries_(obs.counter("ncl.client.suspect_retries")),
      c_transient_recoveries_(obs.counter("ncl.client.transient_recoveries")),
      c_permanent_demotions_(obs.counter("ncl.client.permanent_demotions")),
      c_controller_rpc_retries_(
          obs.counter("ncl.client.controller_rpc_retries")),
      c_directory_lookup_retries_(
          obs.counter("ncl.client.directory_lookup_retries")),
      c_records_(obs.counter("ncl.record.count")),
      c_record_bytes_(obs.counter("ncl.record.bytes")),
      c_peers_replaced_(obs.counter("ncl.client.peers_replaced")),
      c_replacement_starts_(obs.counter("ncl.client.replacement_starts")),
      c_suffix_reposts_(obs.counter("ncl.client.suffix_reposts")),
      c_regions_migrated_(obs.counter("ncl.client.regions_migrated")),
      g_degraded_(obs.gauge("ncl.ec.degraded_stripes")),
      g_inflight_(obs.gauge("ncl.append.inflight")),
      h_record_ns_(obs.histogram("ncl.record.latency_ns")),
      h_recover_ns_(obs.histogram("ncl.recover.latency_ns")) {
  if (config_.pool != nullptr) {
    pool_ = config_.pool;
  } else {
    owned_pool_ = std::make_unique<NclConnectionPool>(fabric_, node_,
                                                      NclPoolOptions{}, obs_);
    pool_ = owned_pool_.get();
  }
  pool_->RegisterClient();
  init_status_ = redundancy_.Validate(config_.fault_budget, [&](uint32_t n) {
    return RetryControllerRpc([&] { return controller_->GetPeers(n, 0, {}); })
        .status();
  });
}

NclClient::~NclClient() {
  // Sever any NclFile handles that outlive the client (an app object torn
  // down after its crashed server was replaced): drop their pooled QPs
  // while the pool still exists and orphan them so their destructor does
  // not reach back into this client. An orphaned file rejects every
  // subsequent operation with kFailedPrecondition.
  for (NclFile* file : open_files_) {
    file->AbandonJoin();
    file->slots_.clear();
    file->deleted_ = true;
    file->client_ = nullptr;
  }
  pool_->UnregisterClient();
}

LogPeer* NclClient::LookupPeerWithRetry(const std::string& name) {
  LogPeer* peer = directory_->Lookup(name);
  if (peer != nullptr || config_.retry.max_attempts <= 1) {
    return peer;
  }
  Simulation* sim = fabric_->sim();
  RetryState state(&config_.retry, sim->Now());
  while (peer == nullptr && state.ShouldRetry(sim->Now())) {
    ObsAdd(c_directory_lookup_retries_);
    sim->RunUntil(sim->Now() + state.NextBackoff(&rng_));
    peer = directory_->Lookup(name);
  }
  return peer;
}

Result<std::unique_ptr<NclFile>> NclClient::Create(const std::string& file,
                                                   uint64_t capacity) {
  if (!init_status_.ok()) {
    return init_status_;
  }
  if (capacity == 0) {
    capacity = config_.default_capacity;
  }
  if (Exists(file)) {
    return AlreadyExistsError("ncl file exists: " + file);
  }
  // Epoch bump: we intend to update the ap-map (§4.5.1).
  auto epoch =
      RetryControllerRpc([&] { return controller_->BumpAppEpoch(config_.app_id); });
  if (!epoch.ok()) {
    return epoch.status();
  }
  std::unique_ptr<NclFile> out(new NclFile(this, file, capacity));
  out->epoch_ = *epoch;

  // One GetPeers for the whole width, every peer allocating at once; each
  // slot's lane is its index.
  Status shortfall;
  std::vector<NclFile::PeerSlot> got = out->AllocateFreshSlots(
      static_cast<size_t>(redundancy_.width()), out->ever_used_, &shortfall);
  if (got.size() < static_cast<size_t>(redundancy_.width())) {
    // Partial allocations leak until the peers' GC notices the epoch has
    // no recorded ap-map entry (tested in ncl_gc tests).
    return shortfall;
  }
  for (NclFile::PeerSlot& slot : got) {
    slot.lane = static_cast<uint32_t>(out->slots_.size());
    out->ever_used_.insert(slot.peer_name);
    out->slots_.push_back(std::move(slot));
  }
  out->RefreshPeerNames();
  RETURN_IF_ERROR(out->WriteApMap(out->peer_names_));
  return out;
}

Result<DeleteReport> NclClient::DeleteWithReport(const std::string& file) {
  auto apmap = RetryControllerRpc(
      [&] { return controller_->GetApMap(config_.app_id, file); });
  if (!apmap.ok()) {
    return apmap.status();
  }
  // Directory lookups first (they may back off under the retry policy,
  // which runs the simulation); then every live peer releases at once.
  std::vector<LogPeer*> peers;
  for (const std::string& name : apmap->peers) {
    peers.push_back(LookupPeerWithRetry(name));
  }
  DeleteReport report;
  fabric_->sim()->Overlap(peers.size(), [&](size_t i) {
    if (peers[i] == nullptr || !peers[i]->alive()) {
      return;
    }
    report.peers_attempted++;
    Status released = peers[i]->Release(config_.app_id, file);
    if (released.ok()) {
      report.peers_released++;
    } else {
      // The region leaks until the peer's epoch GC reclaims it; that is
      // tolerable, silently losing the signal is not.
      report.release_failures++;
      ObsAdd(c_release_failures_);
      LOG_WARNING << "release of " << file << " on " << peers[i]->name()
                  << " failed: " << released.message();
    }
  });
  RETURN_IF_ERROR(RetryControllerRpc(
      [&] { return controller_->DeleteApMap(config_.app_id, file); }));
  return report;
}

Status NclClient::Delete(const std::string& file) {
  auto report = DeleteWithReport(file);
  if (!report.ok()) {
    return report.status();
  }
  if (report->AllReleasesFailed()) {
    // Non-fatal warning: the file is gone from the ap-map but every region
    // release failed, so peer memory leaks until the epoch GC runs.
    return UnavailableError("deleted " + file + " but all " +
                            std::to_string(report->peers_attempted) +
                            " peer releases failed; regions leak until GC");
  }
  return OkStatus();
}

std::vector<std::string> NclClient::ListFiles() {
  return controller_->ListAppFiles(config_.app_id);
}

bool NclClient::Exists(const std::string& file) {
  return RetryControllerRpc(
             [&] { return controller_->GetApMap(config_.app_id, file); })
      .ok();
}

Result<std::unique_ptr<NclFile>> NclClient::Recover(const std::string& file) {
  if (!init_status_.ok()) {
    return init_status_;
  }
  Simulation* sim = fabric_->sim();
  SimTime recover_start = sim->Now();

  // The four phases are contiguous sim-time windows: each span begins
  // where the previous ended, so their durations sum exactly to the
  // end-to-end recovery latency (asserted in obs_test) — the Tracer's
  // "ncl.recover.*" spans are the canonical recovery breakdown.
  ObsSpan recover_span(obs_.tracer, "ncl.recover");

  // Phase 1: peer list from the controller.
  auto apmap = [&] {
    ObsSpan phase(obs_.tracer, "ncl.recover.get_peers");
    return RetryControllerRpc(
        [&] { return controller_->GetApMap(config_.app_id, file); });
  }();
  if (!apmap.ok()) {
    return apmap.status();
  }
  // Geometry fence: the ap-map records the scheme the file was written
  // with; recovering it under another would misinterpret every lane.
  RETURN_IF_ERROR(redundancy_.CheckApMap(*apmap, file));

  // Phase 2: contact the peers; each either grants the region or rejects
  // (it crashed and lost its mr-map, §4.5.1). Directory lookups come first
  // (they may back off under the retry policy, which runs the simulation);
  // then every reachable peer answers its recovery lookup and gets a QP at
  // once, so the phase costs one peer's round, not one per peer.
  std::unique_ptr<NclFile> out(new NclFile(this, file, 0));
  {
    ObsSpan phase(obs_.tracer, "ncl.recover.connect");
    std::vector<LogPeer*> peers;
    uint32_t index = 0;
    for (const std::string& name : apmap->peers) {
      NclFile::PeerSlot slot;
      slot.peer_name = name;
      slot.alive = false;
      slot.lane = index++;
      out->ever_used_.insert(name);
      out->slots_.push_back(std::move(slot));
      peers.push_back(LookupPeerWithRetry(name));
    }
    sim->Overlap(peers.size(), [&](size_t i) {
      LogPeer* peer = peers[i];
      if (peer == nullptr || !peer->alive()) {
        return;
      }
      auto grant = peer->LookupForRecovery(config_.app_id, file);
      if (!grant.ok()) {
        return;
      }
      NclFile::PeerSlot& slot = out->slots_[i];
      slot.peer = peer;
      slot.node = peer->node();
      slot.rkey = grant->rkey;
      slot.qp = pool_->Connect(peer->node());
      slot.alive = true;
      // Back out the logical capacity from the per-slot region size (a
      // shard holds a k-th of the group-rounded content space).
      out->capacity_ = std::max(out->capacity_,
                                redundancy_.CapacityFor(grant->region_bytes));
    });
    if (out->alive_peers() < redundancy_.ack_quorum()) {
      // Too many peers lost the region (more than f replicas / more than m
      // shards): correctly make the file unavailable rather than lose
      // acknowledged writes (§4.2).
      return UnavailableError("only " + std::to_string(out->alive_peers()) +
                              " of " + std::to_string(redundancy_.width()) +
                              " peers hold " + file);
    }
  }

  // Phase 3: read headers from all reachable peers and wait for an ack
  // quorum of answers; claim a tail and rebuild the contents from k lane
  // streams.
  {
  ObsSpan phase(obs_.tracer, "ncl.recover.rdma_read");
  struct HeaderRead {
    int slot_idx;
    uint64_t wr_id;
    bool done = false;
    uint64_t seq = 0;
    uint64_t length = 0;
  };
  std::vector<HeaderRead> reads;
  for (size_t i = 0; i < out->slots_.size(); ++i) {
    NclFile::PeerSlot& slot = out->slots_[i];
    if (!slot.alive) {
      continue;
    }
    HeaderRead hr;
    hr.slot_idx = static_cast<int>(i);
    hr.wr_id = slot.qp->PostRead(slot.rkey, 0, redundancy_.header_bytes());
    reads.push_back(hr);
  }
  // A false return (simulation ran out of events with reads pending) is
  // subsumed by the quorum check below: stalled readers stay !done.
  sim->RunUntilPredicate([&] {
    for (HeaderRead& hr : reads) {
      if (hr.done) {
        continue;
      }
      NclFile::PeerSlot& slot = out->slots_[hr.slot_idx];
      Completion c;
      while (slot.qp->PollCq(&c)) {
        if (c.status != WcStatus::kSuccess) {
          slot.alive = false;
          break;
        }
        if (c.wr_id == hr.wr_id) {
          // A header naming another geometry or lane is a stale or foreign
          // region, and the slot cannot be trusted.
          auto h = redundancy_.DecodeHeader(c.read_data, slot.lane);
          if (!h) {
            slot.alive = false;
            break;
          }
          hr.seq = h->seq;
          hr.length = h->length;
          hr.done = true;
        }
      }
    }
    // All reachable peers either answered or failed.
    int pending = 0;
    for (const HeaderRead& hr : reads) {
      if (!hr.done && out->slots_[hr.slot_idx].alive) {
        pending++;
      }
    }
    return pending == 0;
  });
  // Freshest first; ties keep slot order.
  std::vector<const HeaderRead*> done_reads;
  for (const HeaderRead& hr : reads) {
    if (hr.done) {
      done_reads.push_back(&hr);
    }
  }
  if (static_cast<int>(done_reads.size()) < redundancy_.ack_quorum()) {
    return UnavailableError("fewer than " +
                            std::to_string(redundancy_.ack_quorum()) +
                            " peers answered recovery reads");
  }
  std::stable_sort(done_reads.begin(), done_reads.end(),
                   [](const HeaderRead* a, const HeaderRead* b) {
                     return a->seq > b->seq;
                   });
  // The claim (§4.5.1, DESIGN.md §16): every acknowledged append landed on
  // an ack quorum of lanes, so the k-th largest responding seq S is at
  // least the committed watermark — the maximum for replication (k = 1) —
  // and in-order delivery lets the k freshest responders each serve every
  // append up to S.
  const uint32_t k = redundancy_.k();
  const HeaderRead* floor_read = done_reads[k - 1];
  // Choose the k streams to decode from among the responders at or above
  // S. A data lane at any seq >= S serves its bytes verbatim over the
  // whole claimed prefix, so data lanes go freshest first (for
  // replication: the first max-seq slot in slot order). A parity shard
  // that ran past S has folded later appends into the tail stripe group's
  // columns, so parity goes *stalest* first: that keeps the parity state
  // at or below every chosen data state whenever the responder set
  // allows, which is exactly when the decode is column-consistent.
  std::vector<const HeaderRead*> chosen;
  auto choose = [&](const HeaderRead* hr, bool data) {
    if (chosen.size() < k && hr->seq >= floor_read->seq &&
        redundancy_.IsDataLane(out->slots_[hr->slot_idx].lane) == data) {
      chosen.push_back(hr);
    }
  };
  for (const HeaderRead* hr : done_reads) {
    choose(hr, true);
  }
  for (auto it = done_reads.rbegin(); it != done_reads.rend(); ++it) {
    choose(*it, false);
  }
  out->seq_ = floor_read->seq;
  out->length_ = floor_read->length;
  out->recovery_slot_ = chosen[0]->slot_idx;

  if (out->length_ > 0) {
    // Pull every chosen lane's content prefix at once and decode (see
    // DESIGN.md §16 for the residual mixed-seq corner).
    std::vector<NclFile::Leg> legs(chosen.size());
    std::vector<uint32_t> lanes;
    for (size_t i = 0; i < chosen.size(); ++i) {
      NclFile::PeerSlot* slot = &out->slots_[chosen[i]->slot_idx];
      legs[i].slot = slot;
      legs[i].wanted.push_back(
          slot->qp->PostRead(slot->rkey, redundancy_.header_bytes(),
                             redundancy_.LaneBytes(out->length_)));
      lanes.push_back(slot->lane);
    }
    out->AwaitLegs(&legs);
    std::vector<std::string> streams;
    for (NclFile::Leg& leg : legs) {
      if (!leg.status.ok()) {
        return UnavailableError("recovery read from " + leg.slot->peer_name +
                                " failed");
      }
      streams.push_back(std::move(leg.read_data));
    }
    RETURN_IF_ERROR(
        redundancy_.Decode(lanes, &streams, out->length_, &out->buffer_));
  }
  // Without prefetch, reads go to the recovery peer one RDMA read at a
  // time (Fig 11a) — possible only where one lane holds the whole file.
  out->serve_reads_locally_ =
      config_.prefetch_on_recovery || !redundancy_.single_slot_reads();
  }

  // Phase 4: catch every reachable peer up with the recovered state via
  // the atomic staged-region switch, then join successors in place of
  // unreachable peers, then record the new ap-map. Only after this is it
  // safe to let the application act on the recovered data (§4.5.1).
  {
    ObsSpan phase(obs_.tracer, "ncl.recover.sync_peers");
    auto epoch = RetryControllerRpc(
        [&] { return controller_->BumpAppEpoch(config_.app_id); });
    if (!epoch.ok()) {
      return epoch.status();
    }
    out->epoch_ = *epoch;
    if (!config_.unsafe_skip_recovery_catchup) {
      out->CatchUpViaStagedRegions(out->SlotsWhere(true));
      if (out->alive_peers() < redundancy_.ack_quorum()) {
        return UnavailableError("peers failed during recovery catch-up");
      }
    } else {
      for (NclFile::PeerSlot& slot : out->slots_) {
        if (slot.alive) {
          slot.acked_seq = out->seq_;  // (unsafely) assumed up to date
        }
      }
    }
    // The recovered tail is majority-durable by construction (catch-up
    // completed on >= f+1 peers), so the commit watermark starts there.
    out->committed_seq_ = out->seq_;
    std::vector<NclFile::PeerSlot*> dead = out->SlotsWhere(false);
    if (!dead.empty()) {
      // Best effort: maintain the fault-tolerance level. Failure here is
      // tolerable as long as a majority is alive.
      DiscardStatus(out->AwaitJoin(out->StartJoin(dead, false)),
                    "NclClient recovery slot replacement");
    }
    out->RefreshPeerNames();
    RETURN_IF_ERROR(out->WriteApMap(out->peer_names_));
  }
  ObsRecord(h_recover_ns_, sim->Now() - recover_start);
  return out;
}

Status NclClient::MigrateOffPeer(const std::string& peer_name) {
  // Snapshot the registry: a migration never opens or closes files, but
  // iterating a copy keeps the loop robust against future re-entrancy.
  std::vector<NclFile*> files = open_files_;
  Status first_error = OkStatus();
  for (NclFile* file : files) {
    if (file->deleted_) {
      continue;
    }
    for (size_t i = 0; i < file->slots_.size(); ++i) {
      const NclFile::PeerSlot& slot = file->slots_[i];
      if (!slot.alive || slot.peer_name != peer_name) {
        continue;
      }
      Status st = file->MigrateSlot(i);
      if (st.code() == StatusCode::kAborted) {
        continue;  // superseded by another membership change
      }
      if (!st.ok() && first_error.ok()) {
        first_error = st;
      }
    }
  }
  return first_error;
}

// ------------------------------------------------------------------- File --

NclFile::NclFile(NclClient* client, std::string name, uint64_t capacity)
    : client_(client), name_(std::move(name)), capacity_(capacity) {
  client_->open_files_.push_back(this);
}

NclFile::~NclFile() {
  if (client_ == nullptr) {
    return;  // orphaned: the owning client was destroyed first
  }
  AbandonJoin();
  auto& files = client_->open_files_;
  files.erase(std::remove(files.begin(), files.end(), this), files.end());
}

int NclFile::alive_peers() const {
  int alive = 0;
  for (const PeerSlot& slot : slots_) {
    if (slot.alive) {
      alive++;
    }
  }
  return alive;
}

void NclFile::RefreshPeerNames() {
  peer_names_.clear();
  for (const PeerSlot& slot : slots_) {
    peer_names_.push_back(slot.peer_name);
  }
}

Status NclFile::WriteApMap(const std::vector<std::string>& peers) {
  ApMapEntry entry;
  entry.epoch = epoch_;
  entry.peers = peers;  // slot order is lane order
  scheme().StampApMap(&entry);
  return client_->RetryControllerRpc([&] {
    return client_->controller_->SetApMap(client_->config_.app_id, name_,
                                          entry);
  });
}

std::vector<QueuePair::WriteOp> NclFile::FullStateOps(const PeerSlot& slot,
                                                      RKey rkey,
                                                      std::string* scratch,
                                                      char* header) const {
  // Data before header (§4.4 ordering: the header's arrival implies the
  // contents').
  std::vector<QueuePair::WriteOp> ops;
  Redundancy::Chunk image = scheme().EncodeImage(slot.lane, buffer_, scratch);
  if (!image.bytes.empty()) {
    ops.push_back(QueuePair::WriteOp{
        rkey, scheme().header_bytes() + image.offset, image.bytes});
  }
  scheme().EncodeHeader(seq_, length_, slot.lane, header);
  ops.push_back(QueuePair::WriteOp{
      rkey, 0, std::string_view(header, scheme().header_bytes())});
  return ops;
}

void NclFile::UpdateDegradedGauge() {
  // How far the most-degraded slot trails the commit watermark. A dead
  // slot's acked_seq freezes where it died, so the gauge grows while the
  // file is degraded and snaps back once a join installs a caught-up
  // successor in its place.
  uint64_t min_acked = committed_seq_;
  for (const PeerSlot& slot : slots_) {
    min_acked = std::min(min_acked, std::min(slot.acked_seq, committed_seq_));
  }
  ObsSet(client_->g_degraded_,
         static_cast<int64_t>(committed_seq_ - min_acked));
}

Status NclFile::Append(std::string_view data) {
  return Record(length_, data);
}

Status NclFile::AppendAsync(std::string_view data) {
  return RecordAsync(length_, data);
}

Status NclFile::Drain() { return WaitFor(seq_); }

Status NclFile::Write(uint64_t offset, std::string_view data) {
  return Record(offset, data);
}

Status NclFile::Truncate() {
  // Reset the logical contents; the sequence number keeps increasing so
  // recovery still identifies the newest state.
  return Record(0, std::string_view());
}

Status NclFile::Record(uint64_t offset, std::string_view data) {
  RETURN_IF_ERROR(RecordAsync(offset, data));
  return WaitFor(seq_);
}

Status NclFile::RecordAsync(uint64_t offset, std::string_view data) {
  if (deleted_) {
    return FailedPreconditionError("ncl file was deleted: " + name_);
  }
  if (offset + data.size() > capacity_) {
    return ResourceExhaustedError("write past ncl capacity of " + name_);
  }
  const NclConfig& config = client_->config_;
  bool truncate = data.empty() && offset == 0;
  if (scheme().append_only() && !truncate && offset < length_) {
    // Degraded EC recovery reconstructs the prefix from shard streams at
    // mixed sequence numbers; that is only column-consistent when writes
    // never go back over committed bytes (DESIGN.md §16). Truncate stays
    // legal — it is header-only.
    return InvalidArgumentError(
        "ec ncl files are append-only: positional overwrite at offset " +
        std::to_string(offset) + " < length " + std::to_string(length_) +
        " of " + name_);
  }
  ObsSpan record_span(client_->obs_.tracer, "ncl.record");
  ObsAdd(client_->c_records_);
  ObsAdd(client_->c_record_bytes_, data.size());
  SimTime record_start = client_->fabric_->sim()->Now();

  // Apply locally first (§4.4): the local buffer is also the catch-up
  // source for replacement peers.
  if (truncate) {
    buffer_.clear();
    length_ = 0;
  } else {
    if (buffer_.size() < offset + data.size()) {
      buffer_.resize(offset + data.size(), '\0');
    }
    buffer_.replace(offset, data.size(), data);
    length_ = std::max<uint64_t>(length_, offset + data.size());
  }
  seq_++;
  window_.push_back(WindowEntry{seq_, offset, data.size(), truncate,
                                record_start});
  const uint64_t header_bytes = scheme().header_bytes();
  char header[Redundancy::kMaxHeaderBytes];
  std::string_view header_view(header, header_bytes);
  // Coded lanes encode into this scratch; the chain post copies payloads
  // into pooled WR buffers, so one scratch serves every slot.
  std::string lane_scratch;

  int posted = 0;
  auto post = [&](PeerSlot& slot) {
    // One WR chain per peer, one doorbell: the lane's chunk of the data,
    // then the header, in SQ order, so the header's arrival implies the
    // data's (§4.4). The last WR of the chain carries the seq the ack
    // commits. A replica's chunk is a view of the buffer and a shard's is
    // its lane extraction or parity encoding; the chain post copies either
    // into pooled WR buffers, so a steady-state replicated append performs
    // no heap allocation. A chunk can be empty (a truncate, or a short
    // append missing a data lane); the slot still gets the header WR so
    // its watermark advances.
    Redundancy::Chunk chunk =
        scheme().Encode(slot.lane, buffer_, offset, data.size(), &lane_scratch);
    scheme().EncodeHeader(seq_, length_, slot.lane, header);
    const QueuePair::WriteOp header_op{slot.rkey, 0, header_view};
    QueuePair::WriteOp ops[2];
    size_t nops = 0;
    // BUG (for §4.6 validation) with unsafe_seq_before_data: the header
    // lands before the data; a peer holding the header but not the data
    // can win recovery.
    if (config.unsafe_seq_before_data) {
      ops[nops++] = header_op;
    }
    if (!chunk.bytes.empty()) {
      ops[nops++] = QueuePair::WriteOp{slot.rkey, header_bytes + chunk.offset,
                                       chunk.bytes};
    }
    if (!config.unsafe_seq_before_data) {
      ops[nops++] = header_op;
    }
    uint64_t ids[2];
    slot.qp->PostWriteChain(ops, nops, ids);
    for (size_t k = 0; k < nops; ++k) {
      slot.inflight.emplace_back(ids[k], k + 1 == nops ? seq_ : 0);
    }
    posted++;
  };
  for (PeerSlot& slot : slots_) {
    if (!slot.alive || slot.suspect) {
      // Suspect slots get the missing suffix on resurrection instead of
      // individual appends (their QP is down between attempts).
      continue;
    }
    if (config.test_crash_after_posting >= 0 &&
        posted >= config.test_crash_after_posting) {
      break;
    }
    post(slot);
  }
  if (config.test_crash_after_posting >= 0) {
    return AbortedError("test hook: simulated crash mid-replication");
  }
  // Joining successors get every append after their bulk copy, queued
  // behind it in SQ order.
  if (join_ != nullptr && join_->phase != Join::Phase::kAllocating) {
    for (Successor& s : join_->successors) {
      if (s.slot.alive) {
        post(s.slot);
      }
    }
  }

  // Bounded window: block until the oldest outstanding append commits once
  // `inflight_window` quorum rounds overlap. window = 1 degenerates to the
  // fully synchronous seed behaviour (WaitFor(seq_)). The configured window
  // is further capped by the pool's per-tenant carve of the node's shared
  // in-flight budget, so co-located tenants share the pooled send queues
  // fairly (DESIGN.md §14); with a single registered client the carve
  // (budget/1) is above any reasonable configured window and is a no-op.
  uint64_t window = static_cast<uint64_t>(std::max(
      1,
      std::min(config.inflight_window, client_->pool_->per_client_window())));
  if (seq_ - committed_seq_ >= window) {
    return WaitFor(seq_ - window + 1);
  }
  ObsSet(client_->g_inflight_,
         static_cast<int64_t>(seq_ - committed_seq_));
  return OkStatus();
}

Status NclFile::WaitFor(uint64_t seq) {
  if (deleted_) {
    return FailedPreconditionError("ncl file was deleted: " + name_);
  }
  uint64_t target = std::min(seq, seq_);
  if (committed_seq_ >= target) {
    return OkStatus();
  }
  const NclConfig& config = client_->config_;
  ObsSpan wait_span(client_->obs_.tracer, "ncl.record");

  // Wait until a majority of peers completed `target` and all before it.
  Simulation* sim = client_->fabric_->sim();
  // The quorum-lost join this call waits on, if any.
  std::shared_ptr<Join> repair;
  while (committed_seq_ < target) {
    bool progressed = PumpCompletions();
    if (MaybeRetrySuspects()) {
      progressed = true;
    }
    AdvanceCommitWatermark();
    if (committed_seq_ >= target) {
      break;
    }
    if (alive_peers() < scheme().ack_quorum()) {
      // Too many peers failed (more than f replicas, or more than m shard
      // holders in EC mode): writes block until a join installs caught-up
      // successors (§4.5.2), carried by the pumping below. One join costs
      // one peer's replacement however many slots it covers, so with eager
      // replacement every dead slot goes in it; otherwise just enough to
      // regain an ack quorum. A running background join or migration is
      // abandoned for it; another blocked call's join is waited on.
      if (repair == nullptr || repair != join_) {
        if (repair != nullptr && !repair->status.ok()) {
          // This call's join ended with nothing installed.
          if (repair->status.code() == StatusCode::kAborted) {
            return repair->status;  // test hook: simulated app crash
          }
          return UnavailableError(
              "fewer than " + std::to_string(scheme().ack_quorum()) +
              " log peers are available");
        }
        if (join_ != nullptr && join_->quorum_repair) {
          repair = join_;
        } else {
          AbandonJoin();
          size_t count = config.eager_peer_replacement
                             ? slots_.size()
                             : static_cast<size_t>(scheme().ack_quorum() -
                                                   alive_peers());
          repair = StartJoin(SlotsWhere(false, count), true);
        }
      }
    }
    if (!progressed) {
      // If suspect slots are waiting out their backoff, run the fabric
      // only up to the earliest resurrection attempt — a far-future event
      // (say, a partition heal) must not leapfrog the retry schedule and
      // blow the deadline. Otherwise take the next event; if there is
      // none, the protocol is genuinely stuck.
      SimTime due = NextSuspectRetryAt();
      if (due >= 0) {
        sim->RunUntil(std::max(due, sim->Now()));
      } else if (!sim->RunOne()) {
        return InternalError("replication stalled with no pending events");
      }
    }
  }

  // Restore the fault-tolerance level in the background, off the ack
  // path. Expired suspects are demoted first so they become eligible for
  // replacement; whether any resurrected is irrelevant here.
  if (config.eager_peer_replacement) {
    MaybeRetrySuspects();
    StartReplacement();
  }
  return OkStatus();
}

uint64_t NclFile::ComputeCommittedSeq() const {
  // The quorum-th largest acked_seq among alive slots: that prefix has
  // landed, in order, on at least f+1 replicas — or, in EC mode, on the
  // first k of the k+m shard peers (late binding: the m slowest shards are
  // off the critical path). Monotonic — once durable on a quorum, a prefix
  // stays committed even if those slots die later (replacements only join
  // fully caught up).
  std::vector<uint64_t> acked;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].alive) {
      continue;
    }
    uint64_t slot_acked = slots_[i].acked_seq;
    // While a migration's ap-map write is out, recovery may read either
    // membership: a live source counts only what its successor holds too.
    if (join_ != nullptr && join_->phase == Join::Phase::kInstalling) {
      for (const Successor& s : join_->successors) {
        if (s.target == i) {
          slot_acked = std::min(slot_acked, s.slot.acked_seq);
        }
      }
    }
    acked.push_back(slot_acked);
  }
  int maj = scheme().ack_quorum();
  if (static_cast<int>(acked.size()) < maj) {
    return committed_seq_;
  }
  std::nth_element(acked.begin(), acked.begin() + (maj - 1), acked.end(),
                   std::greater<uint64_t>());
  return std::max(committed_seq_, acked[maj - 1]);
}

void NclFile::AdvanceCommitWatermark() {
  uint64_t committed = ComputeCommittedSeq();
  if (committed > committed_seq_) {
    committed_seq_ = committed;
    Simulation* sim = client_->fabric_->sim();
    for (WindowEntry& entry : window_) {
      if (entry.seq > committed_seq_) {
        break;
      }
      if (entry.reported) {
        continue;
      }
      entry.reported = true;
      // Post→commit, off the caller's stack: the window these rounds
      // overlapped in. Excluded from span self-time attribution.
      if (client_->obs_.tracer != nullptr) {
        client_->obs_.tracer->AddAsyncSpan("ncl.append.pipelined",
                                           entry.posted_at, sim->Now());
      }
      ObsRecord(client_->h_record_ns_, sim->Now() - entry.posted_at);
    }
  }
  ObsSet(client_->g_inflight_, static_cast<int64_t>(seq_ - committed_seq_));
  UpdateDegradedGauge();
  PruneWindow();
}

void NclFile::PruneWindow() {
  // Keep what a straggling alive slot might still need for a suffix
  // repost: everything past the minimum acked_seq. A slot that falls
  // further behind than the cap falls back to a full-state repost.
  uint64_t min_acked = seq_;
  for (const PeerSlot& slot : slots_) {
    if (slot.alive) {
      min_acked = std::min(min_acked, slot.acked_seq);
    }
  }
  size_t cap = std::max<size_t>(
      32, 4 * static_cast<size_t>(
                  std::max(1, client_->config_.inflight_window)));
  while (!window_.empty() && window_.front().reported &&
         (window_.front().seq <= min_acked || window_.size() > cap)) {
    window_.pop_front();
  }
}

bool NclFile::PostSuffix(PeerSlot* slot) {
  if (slot->acked_seq >= seq_) {
    return true;  // nothing missing
  }
  if (window_.empty() || window_.front().seq > slot->acked_seq + 1) {
    return false;  // history pruned past the gap
  }
  slot->inflight.clear();
  const uint64_t header_bytes = scheme().header_bytes();
  std::vector<QueuePair::WriteOp> ops;
  // Each replayed range is encoded into the slot's lane; coded chunks must
  // outlive the PostWriteBatch call (which copies them out), so they
  // accumulate here rather than in one reused scratch. The reserve is
  // load-bearing: ops holds string_views into these strings, and a
  // reallocation would move the small (SSO) ones out from under them.
  std::vector<std::string> lane_scratch;
  lane_scratch.reserve(window_.size());
  for (const WindowEntry& entry : window_) {
    if (entry.seq <= slot->acked_seq || entry.truncate || entry.len == 0) {
      continue;
    }
    // Replay from the *current* buffer: later overwrites of the same range
    // only make the replayed bytes newer, and the final header commits the
    // current (seq_, length_) snapshot.
    uint64_t end = std::min<uint64_t>(entry.offset + entry.len,
                                      buffer_.size());
    if (entry.offset >= end) {
      continue;
    }
    Redundancy::Chunk chunk =
        scheme().Encode(slot->lane, buffer_, entry.offset, end - entry.offset,
                        &lane_scratch.emplace_back());
    if (!chunk.bytes.empty()) {  // a short append can miss a data lane
      ops.push_back(QueuePair::WriteOp{
          slot->rkey, header_bytes + chunk.offset, chunk.bytes});
    }
  }
  char header[Redundancy::kMaxHeaderBytes];
  scheme().EncodeHeader(seq_, length_, slot->lane, header);
  ops.push_back(QueuePair::WriteOp{
      slot->rkey, 0, std::string_view(header, header_bytes)});
  std::vector<uint64_t> ids = slot->qp->PostWriteBatch(std::move(ops));
  for (size_t k = 0; k < ids.size(); ++k) {
    slot->inflight.emplace_back(ids[k], k + 1 == ids.size() ? seq_ : 0);
  }
  ObsAdd(client_->c_suffix_reposts_);
  return true;
}

WcStatus NclFile::PollSlot(PeerSlot* slot, bool* progressed) {
  Completion c;
  while (slot->qp->PollCq(&c)) {
    *progressed = true;
    if (c.status != WcStatus::kSuccess) {
      return c.status;
    }
    if (!slot->inflight.empty() && slot->inflight.front().first == c.wr_id) {
      uint64_t committed = slot->inflight.front().second;
      slot->inflight.pop_front();
      if (committed > 0) {
        slot->acked_seq = committed;
      }
    }
  }
  return WcStatus::kSuccess;
}

bool NclFile::PumpCompletions() {
  bool progressed = false;
  for (PeerSlot& slot : slots_) {
    if (!slot.alive || slot.qp == nullptr) {
      continue;
    }
    WcStatus status = PollSlot(&slot, &progressed);
    if (status != WcStatus::kSuccess) {
      // Peer failure detected via the WR error (§4.5.2). Transient
      // failures make the slot suspect; permanent ones demote it.
      OnSlotError(&slot, status);
    }
    if (slot.suspect && slot.qp != nullptr && slot.inflight.empty()) {
      // The resurrection repost fully drained: the QP is healthy again and
      // the region holds a consistent snapshot at acked_seq. Clear suspect
      // right away; if appends raced the repost the snapshot is stale, so
      // ship the missing tail on the same QP — SQ ordering keeps later
      // appends behind it, and the slot only counts toward a majority once
      // it acks the current sequence.
      slot.suspect = false;
      slot.retry.reset();
      ObsAdd(client_->c_transient_recoveries_);
      if (slot.acked_seq != seq_ && !PostSuffix(&slot)) {
        PostFullState(&slot);
      }
    }
  }
  // A migration successor's acks bound its source's during the ap-map
  // write (ComputeCommittedSeq). One that fails is installed dead.
  if (join_ != nullptr && join_->phase == Join::Phase::kInstalling) {
    for (Successor& s : join_->successors) {
      if (slots_[s.target].alive && s.slot.alive &&
          PollSlot(&s.slot, &progressed) != WcStatus::kSuccess) {
        DemoteSlot(&s.slot);
      }
    }
  }
  return progressed;
}

void NclFile::OnSlotError(PeerSlot* slot, WcStatus status) {
  const RetryPolicy& policy = client_->config_.retry;
  Simulation* sim = client_->fabric_->sim();
  // kRetryExceeded means the target was unreachable — possibly a transient
  // partition. Anything else (revoked rkey, flushed WR on an already-failed
  // QP surfacing late) is treated as permanent.
  if (status == WcStatus::kRetryExceeded && policy.max_attempts > 1) {
    if (!slot->suspect) {
      MarkSuspect(slot);
    }
    if (slot->retry->ShouldRetry(sim->Now())) {
      slot->next_retry_at = sim->Now() + slot->retry->NextBackoff(&client_->rng_);
      slot->inflight.clear();
      // Drop the errored QP; stale flush completions die with it and the
      // next resurrection attempt starts on a fresh QP.
      slot->qp.reset();
      return;
    }
  }
  DemoteSlot(slot);
}

void NclFile::MarkSuspect(PeerSlot* slot) {
  Simulation* sim = client_->fabric_->sim();
  slot->suspect = true;
  slot->suspect_since = sim->Now();
  slot->retry.emplace(&client_->config_.retry, sim->Now());
}

void NclFile::DemoteSlot(PeerSlot* slot) {
  slot->alive = false;
  slot->suspect = false;
  slot->retry.reset();
  slot->inflight.clear();
  slot->qp.reset();
  ObsAdd(client_->c_permanent_demotions_);
}

void NclFile::RepostSuspect(PeerSlot* slot) {
  NclClient* client = client_;
  ObsAdd(client->c_suspect_retries_);
  slot->qp = client->pool_->Connect(slot->node);
  // A mid-window straggler usually only misses the unacked suffix of the
  // in-flight window; ship just that. Full state is the fallback once the
  // window history no longer covers the gap.
  if (!PostSuffix(slot)) {
    PostFullState(slot);
  }
}

void NclFile::PostFullState(PeerSlot* slot) {
  slot->inflight.clear();
  // Full-state post chained behind one doorbell.
  std::string scratch;
  char header[Redundancy::kMaxHeaderBytes];
  std::vector<uint64_t> ids = slot->qp->PostWriteBatch(
      FullStateOps(*slot, slot->rkey, &scratch, header));
  for (size_t k = 0; k < ids.size(); ++k) {
    slot->inflight.emplace_back(ids[k], k + 1 == ids.size() ? seq_ : 0);
  }
}

bool NclFile::MaybeRetrySuspects() {
  Simulation* sim = client_->fabric_->sim();
  const RetryPolicy& policy = client_->config_.retry;
  bool posted = false;
  for (PeerSlot& slot : slots_) {
    if (!slot.alive || !slot.suspect || slot.qp != nullptr) {
      continue;  // qp != nullptr: a resurrection attempt is in flight
    }
    if (sim->Now() < slot.next_retry_at) {
      continue;
    }
    if (sim->Now() - slot.retry->start() >= policy.deadline) {
      DemoteSlot(&slot);
      continue;
    }
    if (!client_->fabric_->IsAlive(slot.node) ||
        client_->fabric_->IsPartitioned(client_->node_, slot.node)) {
      // Still unreachable: a resurrection QP would start in error state and
      // flush, which reads as permanent. Burn a retry attempt and back off
      // again instead; the deadline bounds how long this can go on.
      if (!slot.retry->ShouldRetry(sim->Now())) {
        DemoteSlot(&slot);
        continue;
      }
      ObsAdd(client_->c_suspect_retries_);
      slot.next_retry_at = sim->Now() + slot.retry->NextBackoff(&client_->rng_);
      continue;
    }
    RepostSuspect(&slot);
    posted = true;
  }
  return posted;
}

SimTime NclFile::NextSuspectRetryAt() const {
  SimTime earliest = -1;
  for (const PeerSlot& slot : slots_) {
    if (!slot.alive || !slot.suspect || slot.qp != nullptr) {
      continue;
    }
    if (earliest < 0 || slot.next_retry_at < earliest) {
      earliest = slot.next_retry_at;
    }
  }
  return earliest;
}

std::vector<NclFile::PeerSlot*> NclFile::SlotsWhere(bool alive,
                                                    size_t limit) {
  std::vector<PeerSlot*> out;
  for (PeerSlot& slot : slots_) {
    if (out.size() < limit && slot.alive == alive) {
      out.push_back(&slot);
    }
  }
  return out;
}

void NclFile::PostBulkCatchUp(Leg* leg) {
  leg->span = "ncl.catchup.bulk";
  leg->posted_at = client_->fabric_->sim()->Now();
  std::string scratch;
  char header[Redundancy::kMaxHeaderBytes];
  for (const QueuePair::WriteOp& op :
       FullStateOps(*leg->slot, leg->target, &scratch, header)) {
    leg->wanted.push_back(
        leg->slot->qp->PostWrite(op.rkey, op.remote_offset, op.data));
  }
}

void NclFile::AwaitLegs(std::vector<Leg>* legs) {
  Simulation* sim = client_->fabric_->sim();
  Tracer* tracer = client_->obs_.tracer;
  auto owed = [](const Leg& leg) {
    return leg.status.ok() && leg.done < leg.wanted.size();
  };
  auto settle = [&](Leg* leg) {
    if (leg->span != nullptr && tracer != nullptr) {
      tracer->AddAsyncSpan(leg->span, leg->posted_at, sim->Now());
    }
    leg->span = nullptr;
  };
  bool drained = sim->RunUntilPredicate([&] {
    bool pending = false;
    for (Leg& leg : *legs) {
      if (!owed(leg)) {
        continue;
      }
      Completion c;
      while (leg.slot->qp->PollCq(&c)) {
        if (c.status != WcStatus::kSuccess) {
          leg.status = UnavailableError("catch-up transfer to " +
                                        leg.slot->peer_name + " failed");
          break;
        }
        if (std::find(leg.wanted.begin(), leg.wanted.end(), c.wr_id) !=
            leg.wanted.end()) {
          leg.done++;
          if (!c.read_data.empty()) {
            leg.read_data = std::move(c.read_data);
          }
        }
      }
      if (owed(leg)) {
        pending = true;
      } else {
        settle(&leg);
      }
    }
    return !pending;
  });
  if (!drained) {
    for (Leg& leg : *legs) {
      if (owed(leg)) {
        leg.status = UnavailableError("catch-up transfer to " +
                                      leg.slot->peer_name + " stalled");
        settle(&leg);
      }
    }
  }
}

namespace {

// Contiguous ranges where `a` and `b` differ (b is the target content).
// Nearby ranges are merged so each becomes one WR.
struct DiffRange {
  uint64_t offset;
  uint64_t len;
};

std::vector<DiffRange> ComputeDiffRanges(std::string_view a,
                                         std::string_view b) {
  constexpr uint64_t kMergeGap = 64;
  std::vector<DiffRange> out;
  uint64_t n = b.size();
  uint64_t i = 0;
  while (i < n) {
    bool differs = i >= a.size() || a[i] != b[i];
    if (!differs) {
      ++i;
      continue;
    }
    uint64_t start = i;
    uint64_t last_diff = i;
    ++i;
    while (i < n) {
      bool d = i >= a.size() || a[i] != b[i];
      if (d) {
        last_diff = i;
        ++i;
      } else if (i - last_diff <= kMergeGap) {
        ++i;
      } else {
        break;
      }
    }
    out.push_back(DiffRange{start, last_diff - start + 1});
  }
  return out;
}

}  // namespace

void NclFile::CatchUpViaStagedRegions(const std::vector<PeerSlot*>& slots) {
  const NclConfig& config = client_->config_;
  Simulation* sim = client_->fabric_->sim();
  const SimTime start = sim->Now();
  std::vector<Leg> legs(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    legs[i].slot = slots[i];
    if (slots[i]->peer == nullptr) {
      legs[i].status =
          UnavailableError("peer process unreachable: " + slots[i]->peer_name);
    }
  }
  // Runs one Advance-only step of every leg still going, all at once.
  auto overlap = [&](auto&& step) {
    sim->Overlap(legs.size(), [&](size_t i) {
      if (legs[i].status.ok()) {
        legs[i].status = step(&legs[i]);
      }
    });
  };

  if (config.diff_catchup) {
    // §4.5.1 optimization: clone each peer's current region locally on the
    // peer and ship only the bytewise difference from the slot's lane
    // image of the buffer.
    const uint64_t header_bytes = scheme().header_bytes();
    std::vector<std::string> scratch(legs.size());
    std::vector<std::string_view> images(legs.size());
    // First read every peer's current contents, to diff against.
    for (size_t i = 0; i < legs.size(); ++i) {
      PeerSlot* slot = legs[i].slot;
      images[i] = scheme().EncodeImage(slot->lane, buffer_, &scratch[i]).bytes;
      if (legs[i].status.ok() && !images[i].empty()) {
        legs[i].wanted.push_back(
            slot->qp->PostRead(slot->rkey, header_bytes, images[i].size()));
      }
    }
    AwaitLegs(&legs);
    overlap([&](Leg* leg) -> Status {
      auto staged = leg->slot->peer->CloneRegionForCatchup(config.app_id,
                                                           name_, epoch_);
      if (!staged.ok()) {
        return staged.status();
      }
      leg->target = staged->rkey;
      return OkStatus();
    });
    for (size_t i = 0; i < legs.size(); ++i) {
      Leg& leg = legs[i];
      if (!leg.status.ok()) {
        continue;
      }
      std::string_view local = images[i];
      leg.wanted.clear();
      leg.done = 0;
      for (const DiffRange& r : ComputeDiffRanges(leg.read_data, local)) {
        leg.wanted.push_back(
            leg.slot->qp->PostWrite(leg.target, header_bytes + r.offset,
                                    local.substr(r.offset, r.len)));
      }
      char header[Redundancy::kMaxHeaderBytes];
      scheme().EncodeHeader(seq_, length_, leg.slot->lane, header);
      leg.wanted.push_back(leg.slot->qp->PostWrite(
          leg.target, 0, std::string_view(header, header_bytes)));
    }
  } else {
    // Every peer stages a fresh region at once (pinning and registering it
    // dominates), then all bulk copies go out together.
    overlap([&](Leg* leg) -> Status {
      auto staged = leg->slot->peer->AllocateCatchupRegion(
          config.app_id, name_, SlotRegionBytes(), epoch_);
      if (!staged.ok()) {
        return staged.status();
      }
      leg->target = staged->rkey;
      return OkStatus();
    });
    for (Leg& leg : legs) {
      if (leg.status.ok()) {
        PostBulkCatchUp(&leg);
      }
    }
  }
  AwaitLegs(&legs);
  // Every caught-up peer commits its staged region at once.
  overlap([&](Leg* leg) -> Status {
    RETURN_IF_ERROR(leg->slot->peer->SwitchRegion(config.app_id, name_,
                                                  leg->target));
    leg->slot->rkey = leg->target;
    leg->slot->acked_seq = seq_;
    leg->slot->inflight.clear();
    return OkStatus();
  });
  for (Leg& leg : legs) {
    if (!leg.status.ok()) {
      leg.slot->alive = false;
    }
    if (client_->obs_.tracer != nullptr) {
      client_->obs_.tracer->AddAsyncSpan("ncl.catchup.staged", start,
                                         sim->Now());
    }
  }
}

void NclFile::RunDetached(const std::function<void()>& part,
                          void (NclFile::*then)()) {
  Tracer* tracer = client_->obs_.tracer;
  join_event_ = client_->fabric_->sim()->Detach(
      [&] {
        if (tracer != nullptr) {
          tracer->Unnested(part);
        } else {
          part();
        }
      },
      [this, then] {
        join_event_ = 0;
        (this->*then)();
      });
}

std::shared_ptr<NclFile::Join> NclFile::StartJoin(
    const std::vector<PeerSlot*>& targets, bool quorum_repair) {
  auto join = std::make_shared<Join>();
  for (PeerSlot* slot : targets) {
    join->targets.push_back(static_cast<size_t>(slot - slots_.data()));
  }
  join->quorum_repair = quorum_repair;
  join->started_at = client_->fabric_->sim()->Now();
  assert(join_ == nullptr && "one join per file");
  join_ = join;
  AllocateSuccessors();
  return join;
}

void NclFile::StartReplacement() {
  if (join_ != nullptr || deleted_ ||
      !client_->config_.eager_peer_replacement ||
      client_->fabric_->sim()->Now() < replace_not_before_) {
    return;
  }
  std::vector<PeerSlot*> dead = SlotsWhere(false);
  if (dead.empty()) {
    return;
  }
  ObsAdd(client_->c_replacement_starts_);
  StartJoin(dead, false);
}

Status NclFile::AwaitJoin(const std::shared_ptr<Join>& join) {
  client_->fabric_->sim()->RunUntilPredicate([&] { return join_ != join; });
  if (join_ == join) {
    EndJoin(UnavailableError("join on " + name_ + " stalled"));
  }
  return join->status;
}

void NclFile::AllocateSuccessors() {
  // Step 1, detached: the epoch bump, GetPeers, region registration and the
  // connect cost the join's own timeline, not the caller's.
  RunDetached(
      [&] {
        NclClient* client = client_;
        Join& j = *join_;
        auto epoch = client->RetryControllerRpc(
            [&] { return client->controller_->BumpAppEpoch(client->config_.app_id); });
        if (!epoch.ok()) {
          j.status = epoch.status();
          return;
        }
        epoch_ = *epoch;
        // Exclude only the file's other current members: the live targets
        // (a migration source) and every slot the join does not take over.
        // Any other peer — one used in the past, or a dead slot's own peer
        // after a restart — is safe to reuse: Allocate replaces a stale
        // region with a fresh empty one, and the copy precedes the ap-map
        // write, so the §4.6 quorum argument holds.
        std::set<std::string> exclude;
        for (size_t i = 0; i < slots_.size(); ++i) {
          if (slots_[i].alive || std::find(j.targets.begin(), j.targets.end(),
                                           i) == j.targets.end()) {
            exclude.insert(slots_[i].peer_name);
          }
        }
        std::vector<PeerSlot> fresh = AllocateFreshSlots(
            j.targets.size(), std::move(exclude), &j.status);
        for (size_t i = 0; i < fresh.size(); ++i) {
          Successor& s = j.successors.emplace_back();
          s.target = j.targets[i];
          // The successor inherits its target's lane: slot order is lane
          // order (ap-map contract), and the copy encodes exactly that lane
          // from the local buffer — a replica copy, or a lost shard rebuilt.
          s.slot = std::move(fresh[i]);
          s.slot.lane = slots_[s.target].lane;
        }
      },
      &NclFile::OnSuccessorsAllocated);
}

bool NclFile::RetryStepLater(void (NclFile::*step)()) {
  Join& join = *join_;
  Simulation* sim = client_->fabric_->sim();
  if (join.status.code() != StatusCode::kTimedOut) {
    return false;
  }
  if (!join.retry.has_value()) {
    // From the step's first timeout, as RetryControllerRpc counts.
    join.retry.emplace(&client_->config_.retry, sim->Now());
  }
  if (!join.retry->ShouldRetry(sim->Now())) {
    return false;
  }
  ObsAdd(client_->c_controller_rpc_retries_);
  join.status = OkStatus();
  join_event_ = sim->ScheduleCancelableAt(
      sim->Now() + join.retry->NextBackoff(&client_->rng_), [this, step] {
        join_event_ = 0;
        (this->*step)();
      });
  return true;
}

void NclFile::OnSuccessorsAllocated() {
  Join& join = *join_;
  if (join.successors.empty()) {
    if (RetryStepLater(&NclFile::AllocateSuccessors)) {
      return;  // a controller outage: wait it out as the foreground would
    }
    // No peer could take over; the targets stay as they are. The next
    // background start waits out the retry policy's backoff: each start
    // costs an epoch bump and a GetPeers.
    DiscardStatus(join.status, "NclFile join");
    SimTime now = client_->fabric_->sim()->Now();
    if (!no_spare_retry_.has_value()) {
      no_spare_retry_.emplace(&client_->config_.retry, now);
    }
    replace_not_before_ = now + no_spare_retry_->NextBackoff(&client_->rng_);
    EndJoin(join.status);
    return;
  }
  no_spare_retry_.reset();
  join.retry.reset();  // step 3 gets its own retry budget
  if (client_->config_.unsafe_apmap_before_catchup && join.quorum_repair) {
    InstallSuccessors();  // BUG (for §4.6 validation): before the copy
    return;
  }
  // Step 2: each successor's bulk copy of its lane image, header last. The
  // successor is joining from here on: later appends queue behind the copy.
  join.phase = Join::Phase::kCopying;
  join.copy_posted_at = client_->fabric_->sim()->Now();
  for (Successor& s : join.successors) {
    PostFullState(&s.slot);
    s.copy_header = s.slot.inflight.back().first;
  }
  ProgressJoin();
}

void NclFile::ProgressJoin() {
  Join& join = *join_;
  Simulation* sim = client_->fabric_->sim();
  Tracer* tracer = client_->obs_.tracer;
  for (Successor& s : join.successors) {
    bool progressed = false;
    if (PollSlot(&s.slot, &progressed) != WcStatus::kSuccess) {
      s.slot.alive = false;  // e.g. the fresh peer crashed mid-copy
      continue;
    }
    auto& inflight = s.slot.inflight;
    if (s.copy_header != 0 &&
        std::none_of(inflight.begin(), inflight.end(), [&](const auto& wr) {
          return wr.first == s.copy_header;
        })) {
      s.copy_header = 0;
      if (tracer != nullptr) {
        tracer->AddAsyncSpan("ncl.catchup.bulk", join.copy_posted_at,
                             sim->Now());
      }
    }
  }
  // A failed successor never enters the ap-map; its target stays as is.
  std::erase_if(join.successors,
                [](const Successor& s) { return !s.slot.alive; });
  if (join.successors.empty()) {
    EndJoin(UnavailableError("every catch-up transfer of " + name_ +
                             " failed"));
    return;
  }
  // Install only once each successor's copy landed and it holds every
  // committed append; until then, check again at a successor's next
  // completion.
  bool caught_up = true;
  for (Successor& s : join.successors) {
    if (s.copy_header == 0 && s.slot.acked_seq >= committed_seq_) {
      continue;
    }
    caught_up = false;
    s.slot.qp->RequestNotify([this, sim] {
      if (join_ != nullptr && join_->phase == Join::Phase::kCopying &&
          join_event_ == 0) {
        join_event_ = sim->ScheduleCancelableAt(sim->Now(), [this] {
          join_event_ = 0;
          ProgressJoin();
        });
      }
    });
  }
  if (caught_up) {
    join.phase = Join::Phase::kInstalling;
    InstallSuccessors();
  }
}

void NclFile::InstallSuccessors() {
  Join& join = *join_;
  if (join.phase == Join::Phase::kAllocating) {
    // unsafe_apmap_before_catchup: the ap-map names the successors before
    // their copy is posted, and the application "crashes" right after that
    // write — the Fig 7(iii) window. The targets stay dead under the
    // successors' names; the copy never goes out.
    for (const Successor& s : join.successors) {
      slots_[s.target].peer_name = s.slot.peer_name;
    }
    RefreshPeerNames();
    Status written = WriteApMap(peer_names_);
    EndJoin(written.ok() ? AbortedError("test hook: simulated crash after "
                                        "the ap-map write")
                         : written);
    return;
  }
  // Step 3, detached: the ap-map write naming the successors.
  RefreshPeerNames();
  std::vector<std::string> peers = peer_names_;
  for (const Successor& s : join.successors) {
    peers[s.target] = s.slot.peer_name;
  }
  RunDetached([&] { join.status = WriteApMap(peers); },
              &NclFile::OnInstalled);
}

void NclFile::OnInstalled() {
  Join& join = *join_;
  if (!join.status.ok()) {
    if (!RetryStepLater(&NclFile::InstallSuccessors)) {
      // Fenced: the successors stay out, the targets as they are.
      DiscardStatus(join.status, "NclFile join ap-map write");
      EndJoin(join.status);
    }
    return;
  }
  // Step 4: the successors take over their slots and count from now on. A
  // target still alive is a migration source; its region is released, so
  // a stale write to it fails at the fabric.
  NclClient* client = client_;
  int replaced = 0;
  for (Successor& s : join.successors) {
    PeerSlot& slot = slots_[s.target];
    LogPeer* source = nullptr;
    if (slot.alive) {
      source = slot.peer;
      client->regions_migrated_++;
      ObsAdd(client->c_regions_migrated_);
    } else {
      replaced++;
      client->peers_replaced_++;
      ObsAdd(client->c_peers_replaced_);
    }
    ever_used_.insert(s.slot.peer_name);
    slot = std::move(s.slot);
    if (source != nullptr && source->alive()) {
      DiscardStatus(source->Release(client->config_.app_id, name_),
                    "NclFile migration release of the source region");
    }
  }
  RefreshPeerNames();
  UpdateDegradedGauge();
  if (replaced > 0 && client->obs_.tracer != nullptr) {
    client->obs_.tracer->AddAsyncSpan("ncl.replace_slot", join.started_at,
                                      client->fabric_->sim()->Now());
  }
  EndJoin(OkStatus());
}

void NclFile::EndJoin(Status status) {
  client_->fabric_->sim()->Cancel(join_event_);
  join_event_ = 0;
  if (join_ != nullptr) {
    join_->status = std::move(status);
    join_->successors.clear();
    join_.reset();
  }
}

void NclFile::AbandonJoin() {
  EndJoin(AbortedError("membership change of " + name_ +
                       " superseded by another"));
}

Status NclFile::MigrateSlot(size_t index) {
  ObsSpan span(client_->obs_.tracer, "ncl.migrate_slot");
  const std::string source = slots_[index].peer_name;
  // One join per file: running ones finish first. Awaiting one can start
  // the next — a WaitFor it pumps installs it, then replaces a slot that
  // died meanwhile — so wait until none runs.
  while (std::shared_ptr<Join> running = join_) {
    DiscardStatus(AwaitJoin(running), "NclFile join ahead of a migration");
  }
  if (deleted_) {
    return FailedPreconditionError("ncl file was deleted: " + name_);
  }
  if (!slots_[index].alive || slots_[index].peer_name != source) {
    return AbortedError("migration of " + name_ + " off " + source +
                        " superseded by another membership change");
  }
  return AwaitJoin(StartJoin({&slots_[index]}, false));
}

std::vector<NclFile::PeerSlot> NclFile::AllocateFreshSlots(
    size_t count, std::set<std::string> exclude, Status* shortfall) {
  NclClient* client = client_;
  const uint64_t region_bytes = SlotRegionBytes();
  std::vector<PeerSlot> fresh;
  *shortfall = OkStatus();
  for (int attempt = 0; attempt < client->config_.allocation_attempts &&
                        fresh.size() < count;
       ++attempt) {
    // One GetPeers for every missing peer; with fewer candidates than
    // that, as many as there are.
    size_t want = count - fresh.size();
    auto get_peers = [&] {
      return client->RetryControllerRpc([&] {
        return client->controller_->GetPeers(want, region_bytes, exclude);
      });
    };
    auto peers = get_peers();
    while (!peers.ok() && peers.status().code() == StatusCode::kUnavailable &&
           want > 1) {
      --want;
      peers = get_peers();
    }
    if (!peers.ok()) {
      *shortfall = peers.status();
      return fresh;
    }
    client->fabric_->sim()->Overlap(peers->size(), [&](size_t i) {
      const PeerRecord& rec = (*peers)[i];
      exclude.insert(rec.name);
      LogPeer* peer = client->directory_->Lookup(rec.name);
      if (peer == nullptr || !peer->alive()) {
        // Stale controller registration (peer crashed without
        // unregistering).
        return;
      }
      auto grant =
          peer->Allocate(client->config_.app_id, name_, region_bytes, epoch_);
      if (!grant.ok()) {
        return;  // the controller's availability was a hint (§4.3)
      }
      PeerSlot slot;
      slot.peer_name = peer->name();
      slot.peer = peer;
      slot.node = peer->node();
      slot.rkey = grant->rkey;
      slot.qp = client->pool_->Connect(peer->node());
      fresh.push_back(std::move(slot));
    });
  }
  if (fresh.size() < count) {
    *shortfall = UnavailableError("no log peer could grant " +
                                  std::to_string(region_bytes) +
                                  " bytes for " + name_);
  }
  return fresh;
}

Result<std::string> NclFile::Read(uint64_t offset, uint64_t len) {
  if (deleted_) {
    return FailedPreconditionError("ncl file was deleted: " + name_);
  }
  if (offset >= length_) {
    return std::string();
  }
  len = std::min<uint64_t>(len, length_ - offset);
  Simulation* sim = client_->fabric_->sim();
  const SimParams& params = client_->fabric_->params();

  if (serve_reads_locally_ || recovery_slot_ < 0) {
    // Served from the prefetched local buffer.
    sim->Advance(params.MemReadLatency(len));
    return buffer_.substr(offset, len);
  }

  // No-prefetch variant (Fig 11a): one RDMA read per application read.
  PeerSlot& slot = slots_[recovery_slot_];
  if (!slot.alive || slot.suspect || slot.qp == nullptr) {
    // Fall back to the local copy held for catch-up purposes.
    sim->Advance(params.MemReadLatency(len));
    return buffer_.substr(offset, len);
  }
  uint64_t wr =
      slot.qp->PostRead(slot.rkey, scheme().header_bytes() + offset, len);
  std::string data;
  bool failed = false;
  bool ok = sim->RunUntilPredicate([&] {
    Completion c;
    while (slot.qp->PollCq(&c)) {
      if (c.status != WcStatus::kSuccess) {
        failed = true;
        return true;
      }
      if (c.wr_id == wr) {
        data = std::move(c.read_data);
        return true;
      }
    }
    return false;
  });
  if (!ok || failed) {
    slot.alive = false;
    sim->Advance(params.MemReadLatency(len));
    return buffer_.substr(offset, len);
  }
  return data;
}

Status NclFile::Delete() {
  if (deleted_) {
    return FailedPreconditionError("ncl file already deleted: " + name_);
  }
  AbandonJoin();
  for (PeerSlot& slot : slots_) {
    if (slot.alive && slot.peer != nullptr) {
      Status released = slot.peer->Release(client_->config_.app_id, name_);
      if (!released.ok()) {
        // The region leaks until the peer's epoch GC reclaims it; that is
        // tolerable, silently losing the signal is not.
        ObsAdd(client_->c_release_failures_);
        LOG_WARNING << "release of " << name_ << " on " << slot.peer_name
                    << " failed: " << released.message();
      }
    }
  }
  Status st = client_->RetryControllerRpc([&] {
    return client_->controller_->DeleteApMap(client_->config_.app_id, name_);
  });
  deleted_ = true;
  return st;
}

}  // namespace splitft
