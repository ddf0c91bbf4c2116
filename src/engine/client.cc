// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "engine/client.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <limits>
#include <type_traits>

#include "common/simd.h"
#include "engine/backend.h"
#include "engine/registry.h"

namespace wbs::engine {
namespace {

using MonoClock = std::chrono::steady_clock;

/// Completed control-plane trace spans retained (trace.h ring buffer).
constexpr size_t kTraceCapacity = 256;
/// Backoff cap between probes of a suspect shard: the probe interval
/// stretches to heartbeat_interval_ms * min(2^misses, this).
constexpr uint64_t kBackoffMaxMultiplier = 8;
/// A snapshot read's `newer_than` that no epoch exceeds: the cell answers
/// its epoch alone.
constexpr uint64_t kEpochOnly = std::numeric_limits<uint64_t>::max();

const char* FamilyName(SketchFamily family) {
  switch (family) {
    case SketchFamily::kHeavyHitter:
      return "heavy-hitter";
    case SketchFamily::kScalarEstimate:
      return "scalar-estimate";
    case SketchFamily::kRankVerdict:
      return "rank-verdict";
    case SketchFamily::kGeneric:
      return "generic";
  }
  return "unknown";
}

// The update an input becomes in its shard's sub-batch.
stream::TurnstileUpdate AsUpdate(const stream::TurnstileUpdate& u) {
  return u;
}
stream::TurnstileUpdate AsUpdate(const stream::ItemUpdate& i) {
  return {i.item, 1};
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Create(const ClientOptions& options) {
  const IngestorOptions& in = options.ingest;
  if (in.num_shards == 0) {
    return Status::InvalidArgument("Client: num_shards must be > 0");
  }
  if (in.sketches.empty()) {
    return Status::InvalidArgument("Client: at least one sketch name required");
  }
  if (in.max_queue_batches == 0) {
    return Status::InvalidArgument("Client: max_queue_batches must be > 0");
  }
  // Resolve every configured sketch's declared answer family now, so
  // Handle() and the per-query kind checks never touch the registry lock.
  std::vector<SketchFamily> families;
  families.reserve(in.sketches.size());
  for (const std::string& name : in.sketches) {
    auto family = SketchRegistry::Global().FamilyOf(name);
    if (!family.ok()) return Status::NotFound("Client: unknown sketch " + name);
    families.push_back(family.value());
  }
  if (in.autoscale.enabled && !in.metrics_enabled) {
    return Status::InvalidArgument(
        "Client: autoscaling needs metrics_enabled (the controller samples "
        "per-shard load from the metrics surface)");
  }
  IngestorOptions opts = in;
  if (opts.num_threads > opts.num_shards) opts.num_threads = opts.num_shards;
  if (opts.slots_per_shard == 0) opts.slots_per_shard = 1;
  std::unique_ptr<Client> client(
      new Client(std::move(opts), std::move(families)));
  Status s = client->Init();
  if (!s.ok()) return s;
  return client;
}

Client::Client(IngestorOptions options, std::vector<SketchFamily> families)
    : options_(std::move(options)), families_(std::move(families)) {}

Status Client::Init() {
  start_time_ = MonoClock::now();
  tracer_ = std::make_unique<Tracer>(kTraceCapacity);
  if (options_.metrics_enabled) {
    metrics_ = std::make_unique<EngineMetrics>();
  }
  std::vector<ShardPlacement> placements;
  placements.reserve(options_.num_shards);
  for (size_t shard = 0; shard < options_.num_shards; ++shard) {
    auto placement = BuildCell(options_.backend, shard);
    if (!placement.ok()) return placement.status();
    placements.push_back(std::move(placement).value());
  }
  topology_ = std::make_unique<ShardTopology>(ShardTopology::MakeInitial(
      std::move(placements), options_.slots_per_shard));
  if (options_.slot_sample_shift > 0) {
    // num_slots is fixed for the engine's lifetime (topology ops only
    // reassign slot owners), so one flat atomic array suffices forever.
    slot_heat_slots_ = topology_->View()->num_slots();
    slot_heat_ = std::make_unique<std::atomic<uint64_t>[]>(slot_heat_slots_);
    slot_sample_mask_ =
        (uint64_t{1} << std::min<size_t>(options_.slot_sample_shift, 63)) - 1;
  }
  caches_.reserve(options_.sketches.size());
  for (size_t i = 0; i < options_.sketches.size(); ++i) {
    caches_.push_back(std::make_unique<MergeCache>());
  }
  sessions_.push_back(std::make_unique<Session>());  // the shared session 0
  if (metrics_ != nullptr) sessions_[0]->metrics = metrics_->session(0);
  session_count_.store(1, std::memory_order_release);
  workers_.reserve(options_.num_threads);
  for (size_t w = 0; w < options_.num_threads; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    if (metrics_ != nullptr) workers_[w]->metrics = metrics_->worker(w);
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(w); });
  }
  if (!workers_.empty()) {
    router_ = std::thread([this] { RouterLoop(); });
  }
  if (supervision_enabled() || options_.failover.checkpoint_interval_ms > 0) {
    supervisor_ = std::thread([this] { SupervisorLoop(); });
  }
  if (options_.autoscale.enabled) {
    autoscaler_ = std::make_unique<Autoscaler>(this, options_.autoscale);
    autoscaler_->Start();  // no-op in manual mode (interval 0)
  }
  return Status::OK();
}

Client::~Client() {
  // A client whose Init failed before the topology existed started no
  // thread and holds no batch: there is nothing to flush or join.
  if (topology_ != nullptr) Finish();
}

void Client::RecordError(const Status& s) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) first_error_ = s;
  has_error_.store(true, std::memory_order_release);
}

Status Client::FirstError() const {
  if (!has_error_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

size_t Client::SketchIndex(const std::string& sketch) const {
  for (size_t i = 0; i < options_.sketches.size(); ++i) {
    if (options_.sketches[i] == sketch) return i;
  }
  return options_.sketches.size();
}

Result<SketchHandle> Client::Handle(const std::string& sketch) const {
  const size_t index = SketchIndex(sketch);
  if (index == options_.sketches.size()) {
    return Status::NotFound("Client: sketch not configured: " + sketch);
  }
  return SketchHandle(this, index, families_[index]);
}

Result<size_t> Client::CheckHandle(const SketchHandle& handle,
                                   const char* query_kind,
                                   bool allowed_for_family) const {
  if (!handle.valid()) {
    return Status::InvalidArgument("Client: invalid (default) sketch handle");
  }
  if (handle.owner_ != this) {
    return Status::InvalidArgument(
        "Client: handle belongs to a different client");
  }
  if (!allowed_for_family) {
    return Status::InvalidArgument(
        std::string("Client: ") + query_kind + " query not answerable by a " +
        FamilyName(handle.family_) + " sketch (" +
        options_.sketches[handle.index_] + ")");
  }
  return handle.index_;
}

Result<ProducerSession> Client::OpenSession() {
  std::lock_guard<std::mutex> lock(submit_mu_);
  Status pre = PreSubmit();
  if (!pre.ok()) return pre;
  sessions_.push_back(std::make_unique<Session>());
  if (metrics_ != nullptr) {
    sessions_.back()->metrics = metrics_->session(sessions_.size() - 1);
  }
  session_count_.store(sessions_.size(), std::memory_order_release);
  return ProducerSession{sessions_.size() - 1};
}

void Client::CompleteTicket(const TicketState& state) {
  if (state.session_metrics != nullptr) {
    state.session_metrics->tickets_outstanding->Add(-1);
  }
  std::lock_guard<std::mutex> lock(ticket_mu_);
  // The ticket's sub-batch buffers are freed once applied, so its bytes
  // leave the valve here (physical completion) rather than at the
  // watermark, which may lag behind an out-of-order finisher.
  inflight_bytes_ -= state.bytes;
  done_out_of_order_.push(state.seq);
  while (!done_out_of_order_.empty() &&
         done_out_of_order_.top() == completed_seq_ + 1) {
    done_out_of_order_.pop();
    ++completed_seq_;
    --inflight_tickets_;
  }
  ticket_cv_.notify_all();
}

void Client::DrainWorkers() {
  for (auto& worker : workers_) {
    std::unique_lock<std::mutex> lock(worker->mu);
    worker->cv_drained.wait(lock, [&] { return worker->pending == 0; });
  }
}

void Client::ReScatter(PendingTicket* ticket, const TopologyView& view) {
  // The ticket was scattered under an older table (its producer raced a
  // topology change). Re-scatter so dispatch always matches the installed
  // topology — a batch must never land on a placement that was handed off.
  // Within-shard order follows the old shards' concatenation, which is a
  // fixed permutation of the producer's batch.
  std::vector<std::vector<stream::TurnstileUpdate>> fresh(view.num_shards());
  for (const auto& old : ticket->sub) {
    for (const stream::TurnstileUpdate& u : old) {
      fresh[view.ShardFor(u.item)].push_back(u);
    }
  }
  ticket->sub = std::move(fresh);
  ticket->routing_generation = view.routing_generation;
  size_t nonempty = 0;
  for (const auto& v : ticket->sub) nonempty += v.empty() ? 0 : 1;
  // Safe: the router owns the ticket and no worker has seen it yet.
  ticket->state->remaining.store(nonempty, std::memory_order_relaxed);
}

void Client::RefreshShardMetricsCache(
    std::vector<ShardIngestMetrics*>* cache, size_t num_shards) {
  if (metrics_ == nullptr) return;
  while (cache->size() < num_shards) {
    cache->push_back(metrics_->shard(cache->size()));
  }
}

void Client::RouterLoop() {
  RouterMetrics* rm = metrics_ == nullptr ? nullptr : metrics_->router();
  // Shard-id -> instrument bundle cache, refreshed when the topology grows
  // (router-thread local, so no lock on the dispatch path). shard_health
  // mirrors it for the supervision accounting pointers.
  std::vector<ShardIngestMetrics*> shard_metrics;
  std::vector<ShardHealthState*> shard_health;
  for (;;) {
    PendingTicket ticket;
    {
      std::unique_lock<std::mutex> lock(submit_mu_);
      router_cv_.wait(lock,
                      [&] { return router_stop_ || queued_total_ > 0; });
      if (queued_total_ == 0) {
        if (router_stop_) return;
        continue;
      }
      // Control barriers linearize topology changes at batch boundaries:
      // every data ticket with a smaller sequence number is dispatched
      // first, and none with a larger one before the barrier completes.
      // Fencing on control_seqs_ (not on lane fronts) matters: a barrier
      // parked behind earlier data in its own lane must still hold back
      // later-seq tickets queued in OTHER lanes.
      const uint64_t control_seq =
          control_seqs_.empty() ? std::numeric_limits<uint64_t>::max()
                                : control_seqs_.front();
      // Round-robin across session lanes (fairness: a hot producer's lane
      // cannot monopolize dispatch), FIFO within a lane.
      const size_t n = sessions_.size();
      size_t chosen = n;
      for (size_t k = 0; k < n && chosen == n; ++k) {
        const size_t i = (rr_cursor_ + k) % n;
        const auto& q = sessions_[i]->queue;
        if (q.empty() || q.front().control != nullptr) continue;
        if (q.front().state->seq < control_seq) chosen = i;
      }
      if (chosen == n) {
        for (size_t i = 0; i < n && chosen == n; ++i) {
          const auto& q = sessions_[i]->queue;
          if (!q.empty() && q.front().control != nullptr &&
              q.front().state->seq == control_seq) {
            chosen = i;
          }
        }
      }
      if (chosen == n) {
        // Work is queued but nothing is dispatchable this round — every
        // eligible lane is fenced behind a pending barrier.
        if (rm != nullptr) rm->parked_rounds_total->Inc();
        continue;
      }
      rr_cursor_ = (chosen + 1) % n;
      ticket = std::move(sessions_[chosen]->queue.front());
      sessions_[chosen]->queue.pop_front();
      --queued_total_;
      if (ticket.control != nullptr) control_seqs_.pop_front();
    }

    if (ticket.control != nullptr) {
      // Barrier: everything dispatched so far must be applied before the
      // topology mutates (MoveShard serializes a quiescent shard). The
      // barrier latency includes the worker drain — that wait IS the cost
      // a control op imposes on the pipeline.
      const auto t0 = rm == nullptr ? MonoClock::time_point{}
                                    : MonoClock::now();
      DrainWorkers();
      ticket.control->result = ticket.control->op();
      if (rm != nullptr) {
        rm->barriers_total->Inc();
        rm->barrier_us->Record(ElapsedUs(t0));
      }
      CompleteTicket(*ticket.state);
      continue;
    }

    std::shared_ptr<const TopologyView> view = topology_->View();
    if (ticket.routing_generation != view->routing_generation) {
      if (rm != nullptr) rm->rescatters_total->Inc();
      ReScatter(&ticket, *view);
    }
    RefreshShardMetricsCache(&shard_metrics, view->num_shards());
    // Health state rides on every job regardless of supervision: the
    // applied counters are what make checkpoint exposure windows and
    // recovery loss accounting exact, and explicit Checkpoint()/
    // RecoverShard() work on unsupervised engines too.
    while (shard_health.size() < view->num_shards()) {
      shard_health.push_back(&HealthFor(shard_health.size()));
    }

    // Forward the sub-batches to their owning workers in shard order,
    // placements resolved against the installed table. A full worker queue
    // blocks *here* — the router is the thread that absorbs backpressure,
    // so Submit never waits on a worker queue (only at the inflight
    // valves) and the pressure shows up as a later ticket completion.
    size_t dispatched = 0;
    for (size_t shard = 0; shard < ticket.sub.size(); ++shard) {
      if (ticket.sub[shard].empty()) continue;
      const ShardPlacement placement = view->placements[shard];
      Worker* worker = workers_[shard % workers_.size()].get();
      {
        std::unique_lock<std::mutex> lock(worker->mu);
        worker->cv_space.wait(lock, [&] {
          return worker->queue.size() < options_.max_queue_batches;
        });
        worker->queue.push_back(
            Job{placement.backend, std::move(ticket.sub[shard]), ticket.state,
                rm == nullptr ? nullptr : shard_metrics[shard],
                shard_health[shard]});
        if (worker->metrics != nullptr) {
          worker->metrics->queue_depth->Set(int64_t(worker->queue.size()));
        }
        ++worker->pending;
      }
      worker->cv_work.notify_one();
      ++dispatched;
    }
    if (rm != nullptr) rm->dispatches_total->Inc();
    if (dispatched > 0 && valve_parked_.load() > 0) {
      // A producer parked at the valve may be asleep for want of a job.
      {
        std::lock_guard<std::mutex> lock(ticket_mu_);
        ++dispatch_epoch_;
      }
      ticket_cv_.notify_all();
    }
    if (dispatched == 0) {
      // Nothing to apply (all sub-batches empty): complete directly.
      CompleteTicket(*ticket.state);
    }
  }
}

bool Client::TakeJob(Worker* worker, Job* job) {
  // The first queued job of each cell is the oldest, so skipping held
  // cells keeps every cell's jobs in queue order.
  auto it = worker->queue.begin();
  while (it != worker->queue.end() && worker->Holds(it->backend.get())) ++it;
  if (it == worker->queue.end()) return false;
  *job = std::move(*it);
  worker->queue.erase(it);
  worker->held.push_back(job->backend.get());
  if (worker->metrics != nullptr) {
    worker->metrics->queue_depth->Set(int64_t(worker->queue.size()));
  }
  return true;
}

bool Client::RunJob(const Job& job) {
  // Once a shard sketch has errored, keep draining (so the router never
  // deadlocks on backpressure and every ticket still completes) but stop
  // mutating state.
  const bool apply = !has_error_.load(std::memory_order_acquire);
  if (apply) {
    (void)ApplySubBatch(job.backend.get(), job.updates, job.health,
                        job.metrics);
  }
  if (job.ticket != nullptr &&
      job.ticket->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    CompleteTicket(*job.ticket);
  }
  return apply;
}

void Client::WorkerLoop(Worker* worker) {
  // The cells applied to since this worker's queue last ran empty. Then
  // each gets the idle hint, after its ticket completed and before
  // `pending` drops, so a publication is off that ticket's path and never
  // runs beside a barrier's or Flush's drain. A cell another thread holds
  // is skipped: that thread gives the hint (HelpApply).
  std::vector<std::shared_ptr<ShardBackend>> applied;
  std::vector<std::shared_ptr<ShardBackend>> idle;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      while (!TakeJob(worker, &job)) {
        if (worker->stop && worker->queue.empty()) return;
        worker->cv_work.wait(lock);
      }
    }
    worker->cv_space.notify_one();
    if (RunJob(job) && std::find(applied.begin(), applied.end(),
                                 job.backend) == applied.end()) {
      applied.push_back(job.backend);
    }
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->Release(job.backend.get());
      if (worker->queue.empty()) {
        for (auto& cell : applied) {
          if (worker->Holds(cell.get())) continue;
          worker->held.push_back(cell.get());
          idle.push_back(std::move(cell));
        }
        applied.clear();
      }
      if (idle.empty()) {
        worker->Done();
        continue;
      }
    }
    if (!has_error_.load(std::memory_order_acquire)) {
      for (const auto& cell : idle) cell->OnIdle();
    }
    std::lock_guard<std::mutex> lock(worker->mu);
    for (const auto& cell : idle) worker->Release(cell.get());
    idle.clear();
    worker->Done();
  }
}

bool Client::HelpApply(SessionMetrics* sm) {
  // The worker furthest behind: the longest queue with a runnable job.
  Worker* from = nullptr;
  size_t longest = 0;
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    const auto& q = worker->queue;
    if (q.size() > longest &&
        std::any_of(q.begin(), q.end(), [&](const Job& j) {
          return !worker->Holds(j.backend.get());
        })) {
      longest = q.size();
      from = worker.get();
    }
  }
  if (from == nullptr) return false;
  Job job;
  {
    std::lock_guard<std::mutex> lock(from->mu);
    if (!TakeJob(from, &job)) return false;  // its worker took it first
  }
  from->cv_space.notify_one();
  if (sm != nullptr) sm->valve_applies_total->Inc();
  const ShardBackend* cell = job.backend.get();
  bool hint = RunJob(job);
  {
    std::lock_guard<std::mutex> lock(from->mu);
    // Keep the cell for its idle hint only when nothing more is queued for
    // it; otherwise hand it to the queue's next applier now.
    hint = hint && std::none_of(from->queue.begin(), from->queue.end(),
                                [&](const Job& j) {
                                  return j.backend.get() == cell;
                                });
    if (!hint) {
      from->Release(cell);
      from->Done();
    }
  }
  if (hint) {
    if (!has_error_.load(std::memory_order_acquire)) job.backend->OnIdle();
    std::lock_guard<std::mutex> lock(from->mu);
    from->Release(cell);
    from->Done();
  }
  from->cv_work.notify_one();  // its worker may wait on this cell
  return true;
}

Status Client::PreSubmit() const {
  if (finished_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("Client: already finished");
  }
  return FirstError();
}

Status Client::ApplySubBatch(
    ShardBackend* backend, const std::vector<stream::TurnstileUpdate>& updates,
    ShardHealthState* health, ShardIngestMetrics* m) {
  const size_t n = updates.size();
  // Degraded mode: a shard already declared dead drops its sub-batches
  // without touching the backend (fast, and a dead peer's channel would
  // only fail again). The drops are counted — they become
  // updates_lost_total at the next recovery.
  if (health->health.load(std::memory_order_acquire) ==
      uint8_t(ShardHealth::kDead)) {
    health->dropped.fetch_add(n, std::memory_order_relaxed);
    return Status::OK();
  }
  const auto t0 = m == nullptr ? MonoClock::time_point{} : MonoClock::now();
  Status s = backend->ApplyBatch(updates.data(), n);
  if (s.ok()) {
    health->applied.fetch_add(n, std::memory_order_relaxed);
    if (m != nullptr) {
      m->updates_total->Inc(n);
      m->batches_total->Inc();
      m->apply_us->Record(ElapsedUs(t0));
      m->batch_size->Record(n);
    }
    return s;
  }
  if (supervision_enabled() && s.code() == Status::Code::kUnavailable) {
    // Supervised engines degrade instead of poisoning the pipeline: the
    // placement is unreachable, so this batch is dropped (counted) and the
    // shard flagged for the supervisor to confirm and re-home.
    health->dropped.fetch_add(n, std::memory_order_relaxed);
    uint8_t healthy = uint8_t(ShardHealth::kHealthy);
    health->health.compare_exchange_strong(healthy,
                                           uint8_t(ShardHealth::kSuspect),
                                           std::memory_order_acq_rel);
    return Status::OK();
  }
  RecordError(s);
  return s;
}

Result<IngestTicket> Client::ApplyInline(const TopologyView& view,
                                         size_t count) {
  // Inline mode (no workers): scatter_ already holds the sub-batches; apply
  // them synchronously under submit_mu_ (held by the caller), so concurrent
  // producers serialize and apply order is their arrival order. The
  // returned ticket is the always-complete seq 0 — by the time Submit
  // returns, the batch IS ingested, and errors surface synchronously. No
  // ticket state is allocated: the unbatched single-producer path stays
  // cheap.
  updates_submitted_.fetch_add(count, std::memory_order_acq_rel);
  RefreshShardMetricsCache(&inline_shard_metrics_, scatter_.size());
  for (size_t shard = 0; shard < scatter_.size(); ++shard) {
    if (scatter_[shard].empty()) continue;
    Status s = ApplySubBatch(
        view.placements[shard].backend.get(), scatter_[shard],
        &HealthFor(shard),
        metrics_ == nullptr ? nullptr : inline_shard_metrics_[shard]);
    if (!s.ok()) return s;
  }
  return IngestTicket{};
}

Result<IngestTicket> Client::EnqueueScattered(
    ProducerSession session,
    std::vector<std::vector<stream::TurnstileUpdate>> sub, size_t count,
    bool blocking, uint64_t routing_generation) {
  size_t nonempty = 0;
  for (const auto& v : sub) nonempty += v.empty() ? 0 : 1;
  const uint64_t bytes = uint64_t(count) * sizeof(stream::TurnstileUpdate);

  // Validate the session BEFORE the valve: a bad id must fail immediately,
  // not block in the turnstile (holding a FIFO turn) until the backlog
  // drains. Sessions are never removed, so the lock-free count is safe.
  if (session.id >= session_count_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("Client: unknown producer session");
  }
  // Graceful-degradation fail-fast: a NON-BLOCKING submission touching a
  // dead shard is rejected with Unavailable before it takes a valve turn —
  // the producer owns the retry/route-around policy. (Blocking submissions
  // are accepted; the dead shard's share is dropped and counted as loss,
  // matching what happens to batches already in flight when a shard dies.)
  if (!blocking && supervision_enabled()) {
    for (size_t shard = 0; shard < sub.size(); ++shard) {
      if (sub[shard].empty()) continue;
      if (HealthFor(shard).health.load(std::memory_order_acquire) ==
          uint8_t(ShardHealth::kDead)) {
        return Status::Unavailable("Client: shard " + std::to_string(shard) +
                                   " is dead (awaiting recovery)");
      }
    }
  }
  // Bundle lookup before the valve so the wait itself can be timed. This
  // is per SUBMIT (not per update) and the bundle accessor's lock is a
  // short uncontended index — noise next to the valve + seq mutexes the
  // submit path already takes; the instruments behind it are lock-free.
  SessionMetrics* sm =
      metrics_ == nullptr ? nullptr : metrics_->session(session.id);

  // Flow-control valves: a ticket-count cap (memory safety, far above the
  // worker-queue backpressure point) and a total-bytes cap on the queued
  // update data. An oversized batch is admitted when nothing is in flight
  // so it can never deadlock the valve. Admission is FAIR: blocked
  // producers take a turnstile number and are admitted in arrival order,
  // so a hot producer looping on Submit cannot starve a parked one (its
  // next submission queues behind every earlier waiter). Admission and
  // counter reservation happen under ONE continuous hold of ticket_mu_.
  const auto admissible = [&] {
    if (options_.max_inflight_tickets > 0 &&
        inflight_tickets_ >= options_.max_inflight_tickets) {
      return false;
    }
    if (options_.max_inflight_bytes > 0 && inflight_tickets_ > 0 &&
        inflight_bytes_ + bytes > options_.max_inflight_bytes) {
      return false;
    }
    return true;
  };
  {
    std::unique_lock<std::mutex> lock(ticket_mu_);
    if (blocking) {
      const uint64_t turn = valve_next_++;
      if (valve_serving_ == turn && admissible()) {
        ++valve_serving_;
      } else {
        // Valve pressure: this producer parks. Count the wait and time it
        // (the clock reads happen only on this already-blocking path).
        // While parked it keeps its turn and applies queued sub-batches
        // instead of sleeping; it sleeps only when none is runnable.
        const auto t0 = sm == nullptr ? MonoClock::time_point{}
                                      : MonoClock::now();
        if (sm != nullptr) sm->valve_waits_total->Inc();
        // The router wakes it when it dispatches (dispatch_epoch_).
        const auto admitted = [&] {
          return valve_serving_ == turn && admissible();
        };
        valve_parked_.fetch_add(1);
        while (!admitted()) {
          const uint64_t epoch = dispatch_epoch_;
          lock.unlock();
          const bool helped = HelpApply(sm);
          lock.lock();
          if (!helped && !admitted() && epoch == dispatch_epoch_) {
            ticket_cv_.wait(lock);
          }
        }
        valve_parked_.fetch_sub(1);
        ++valve_serving_;
        if (sm != nullptr) sm->valve_wait_us->Record(ElapsedUs(t0));
      }
    } else if (valve_next_ != valve_serving_ || !admissible()) {
      // Fail fast on a full valve — or on queued waiters, which a
      // non-blocking submission must not barge past.
      if (sm != nullptr) sm->try_rejections_total->Inc();
      return Status::ResourceExhausted(
          "Client: inflight valve full (max_inflight_tickets / "
          "max_inflight_bytes)");
    }
    ++inflight_tickets_;
    inflight_bytes_ += bytes;
  }
  // Hand the turnstile to the next waiter (its turn predicate re-checks).
  ticket_cv_.notify_all();

  auto state = std::make_shared<TicketState>();
  state->bytes = bytes;
  state->remaining.store(nonempty, std::memory_order_relaxed);
  state->session_metrics = sm;
  if (sm != nullptr) sm->tickets_outstanding->Add(1);

  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    Status pre = PreSubmit();  // recheck: Finish may have won the race
    if (pre.ok() && session.id >= sessions_.size()) {
      pre = Status::InvalidArgument("Client: unknown producer session");
    }
    if (!pre.ok()) {
      // Release the reservation: this ticket will never exist.
      if (sm != nullptr) sm->tickets_outstanding->Add(-1);
      {
        std::lock_guard<std::mutex> tlock(ticket_mu_);
        --inflight_tickets_;
        inflight_bytes_ -= bytes;
      }
      ticket_cv_.notify_all();
      return pre;
    }
    state->seq = seq = ++next_seq_;
    updates_submitted_.fetch_add(count, std::memory_order_acq_rel);
    // Counted here — not before the valve — so submits_total is exactly
    // the tickets that got a sequence number (rejections and races with
    // Finish have their own accounting).
    if (sm != nullptr) sm->submits_total->Inc();
    PendingTicket ticket;
    ticket.state = state;
    ticket.sub = std::move(sub);
    ticket.routing_generation = routing_generation;
    sessions_[session.id]->queue.push_back(std::move(ticket));
    ++queued_total_;
  }
  router_cv_.notify_one();
  return IngestTicket{seq};
}

template <typename T>
void Client::Scatter(const TopologyView& view, const T* data, size_t count,
                     std::vector<std::vector<stream::TurnstileUpdate>>* out) {
  std::vector<std::vector<stream::TurnstileUpdate>>& buckets = *out;
  if (view.num_shards() == 1) {
    // Nothing to route (and no slot heat worth sampling): copy through.
    if constexpr (std::is_same_v<T, stream::TurnstileUpdate>) {
      buckets[0].insert(buckets[0].end(), data, data + count);
    } else {
      for (size_t i = 0; i < count; ++i) {
        buckets[0].push_back(AsUpdate(data[i]));
      }
    }
    return;
  }
  const size_t num_slots = view.num_slots();
  const uint32_t* slot_to_shard = view.slot_to_shard.data();
  const bool pow2 = (num_slots & (num_slots - 1)) == 0;
  const uint64_t mask = uint64_t(num_slots) - 1;
  const simd::KernelDispatch& kern = simd::Kernels();
  uint64_t items8[8];
  uint64_t hashes8[8];
  for (size_t base = 0; base < count; base += 8) {
    const size_t chunk = std::min<size_t>(8, count - base);
    for (size_t k = 0; k < chunk; ++k) items8[k] = data[base + k].item;
    kern.hash_items(items8, chunk, hashes8);
    for (size_t k = 0; k < chunk; ++k) {
      const size_t slot = pow2 ? size_t(hashes8[k] & mask)
                               : size_t(hashes8[k] % num_slots);
      assert(slot == TopologyView::SlotOf(data[base + k].item, num_slots) &&
             "SIMD scatter slot diverged from TopologyView::SlotOf");
      buckets[slot_to_shard[slot]].push_back(AsUpdate(data[base + k]));
      SampleSlotHeat(slot);
    }
  }
}

template <typename T>
Result<IngestTicket> Client::SubmitBatch(const T* data, size_t count,
                                         ProducerSession session,
                                         bool blocking) {
  Status pre = PreSubmit();
  if (!pre.ok()) return pre;
  if (count == 0) return IngestTicket{};  // seq 0: always complete

  if (workers_.empty()) {
    std::lock_guard<std::mutex> lock(submit_mu_);
    Status recheck = PreSubmit();
    if (recheck.ok() && session.id >= sessions_.size()) {
      recheck = Status::InvalidArgument("Client: unknown producer session");
    }
    if (!recheck.ok()) return recheck;
    if (metrics_ != nullptr) {
      metrics_->session(session.id)->submits_total->Inc();
    }
    std::shared_ptr<const TopologyView> view = topology_->View();
    scatter_.resize(view->num_shards());
    for (auto& v : scatter_) v.clear();
    // Power-of-two capacity rounding keeps steadily growing batch sizes
    // from reallocating the reused single-shard scratch on every
    // submission (an exact reserve would grow capacity to exactly count).
    if (scatter_.size() == 1 && scatter_[0].capacity() < count) {
      scatter_[0].reserve(std::bit_ceil(count));
    }
    Scatter(*view, data, count, &scatter_);
    return ApplyInline(*view, count);
  }

  // Scatter on the producer's thread — the parallelizable part of
  // submission, and the reason multiple producers scale: hashing `count`
  // items happens outside every engine lock. The view's generation rides
  // along so the router can re-scatter if a topology change races us.
  std::shared_ptr<const TopologyView> view = topology_->View();
  std::vector<std::vector<stream::TurnstileUpdate>> sub(view->num_shards());
  if (sub.size() == 1) sub[0].reserve(count);
  Scatter(*view, data, count, &sub);
  return EnqueueScattered(session, std::move(sub), count, blocking,
                          view->routing_generation);
}

Result<IngestTicket> Client::Submit(const stream::TurnstileUpdate* updates,
                                    size_t count, ProducerSession session) {
  return SubmitBatch(updates, count, session, /*blocking=*/true);
}

Result<IngestTicket> Client::TrySubmit(const stream::TurnstileUpdate* updates,
                                       size_t count, ProducerSession session) {
  return SubmitBatch(updates, count, session, /*blocking=*/false);
}

Result<IngestTicket> Client::SubmitItems(const stream::ItemUpdate* items,
                                         size_t count,
                                         ProducerSession session) {
  return SubmitBatch(items, count, session, /*blocking=*/true);
}

// ---- topology operations ---------------------------------------------------

BackendOptions Client::CellOptions(size_t shard) const {
  BackendOptions bopts;
  bopts.sketches = options_.sketches;
  // The cell receives the seed derived for the GLOBAL shard id, so the
  // shard samples identically no matter where (or how often) it is homed.
  bopts.config = ShardConfigFor(options_.config, shard);
  bopts.snapshot_min_updates = options_.snapshot_min_updates;
  bopts.shard = shard;
  return bopts;
}

Result<ShardPlacement> Client::BuildCell(const BackendFactory& factory,
                                         size_t shard) const {
  auto cell = factory ? factory(CellOptions(shard))
                      : InProcessBackendFactory()(CellOptions(shard));
  if (!cell.ok()) return cell.status();
  if (cell.value() == nullptr) {
    return Status::Internal("Client: backend factory returned null");
  }
  // The views are the cells' only owners (see ShardPlacement).
  ShardPlacement placement;
  placement.backend = std::move(cell).value();
  placement.endpoint = placement.backend->Endpoint();
  return placement;
}

Status Client::RunAtBarrier(std::function<Status()> op) {
  if (workers_.empty()) {
    // Inline mode: submit_mu_ serializes against every inline apply, so
    // holding it IS the batch barrier.
    std::lock_guard<std::mutex> lock(submit_mu_);
    Status pre = PreSubmit();
    if (!pre.ok()) return pre;
    RouterMetrics* rm = metrics_ == nullptr ? nullptr : metrics_->router();
    const auto t0 = rm == nullptr ? MonoClock::time_point{} : MonoClock::now();
    Status s = op();
    if (rm != nullptr) {
      rm->barriers_total->Inc();
      rm->barrier_us->Record(ElapsedUs(t0));
    }
    return s;
  }
  auto state = std::make_shared<TicketState>();
  auto control = std::make_shared<ControlState>();
  control->op = std::move(op);
  {
    // Barriers bypass the valves (a barrier must never deadlock behind a
    // full valve it is about to help drain) but still count in flight so
    // Flush and the watermark see them.
    std::lock_guard<std::mutex> tlock(ticket_mu_);
    ++inflight_tickets_;
  }
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    Status pre = PreSubmit();
    if (!pre.ok()) {
      {
        std::lock_guard<std::mutex> tlock(ticket_mu_);
        --inflight_tickets_;
      }
      ticket_cv_.notify_all();
      return pre;
    }
    state->seq = seq = ++next_seq_;
    PendingTicket ticket;
    ticket.state = state;
    ticket.control = control;
    sessions_[0]->queue.push_back(std::move(ticket));
    control_seqs_.push_back(seq);
    ++queued_total_;
  }
  router_cv_.notify_one();
  Status wait = Wait(IngestTicket{seq});
  if (!control->result.ok()) return control->result;
  return wait;
}

Status Client::AddShards(size_t n, BackendFactory factory) {
  if (n == 0) return Status::OK();
  return RunAtBarrier([this, n, factory = std::move(factory)] {
    return DoAddShards(n, factory);
  });
}

Status Client::MoveShard(size_t shard, BackendFactory factory) {
  return RunAtBarrier([this, shard, factory = std::move(factory)] {
    return DoMoveShard(shard, factory);
  });
}

Status Client::MoveSlots(size_t source, std::vector<uint32_t> slots,
                         size_t dest) {
  return RunAtBarrier([this, source, slots = std::move(slots), dest] {
    return DoMoveSlots(source, slots, dest);
  });
}

std::vector<uint64_t> Client::SlotHeat() const {
  std::vector<uint64_t> heat(slot_heat_slots_);
  // Scale sampled counts back to estimated update counts.
  const size_t shift = std::min<size_t>(options_.slot_sample_shift, 63);
  for (size_t slot = 0; slot < slot_heat_slots_; ++slot) {
    heat[slot] = slot_heat_[slot].load(std::memory_order_relaxed) << shift;
  }
  return heat;
}

Status Client::DoAddShards(size_t n, const BackendFactory& factory) {
  Tracer::Span span = tracer_->StartSpan("add_shards");
  span.Attr("count", n);
  std::shared_ptr<const TopologyView> view = topology_->View();
  std::vector<ShardPlacement> added;
  for (size_t k = 0; k < n; ++k) {
    auto placement = BuildCell(factory, view->num_shards() + k);
    if (!placement.ok()) return placement.status();
    added.push_back(std::move(placement).value());
  }
  std::shared_ptr<const TopologyView> next =
      ShardTopology::WithAddedShards(*view, added);
  topology_->Install(std::move(next));
  span.Attr("generation", topology_->View()->generation);
  span.End();
  return Status::OK();
}

Status Client::DoMoveShard(size_t shard, const BackendFactory& factory) {
  std::shared_ptr<const TopologyView> view = topology_->View();
  if (shard >= view->num_shards()) {
    return Status::OutOfRange("Client: MoveShard id out of range");
  }
  const ShardPlacement source = view->placements[shard];

  // Each phase runs under its own child span; the span durations (see
  // TraceSpans()) are the single source of timing truth for the handoff.
  Tracer::Span move = tracer_->StartSpan("move_shard");
  move.Attr("shard", shard);

  // 1. The barrier already drained in-flight batches; publish the source's
  //    snapshot so the serialized state is its exact live state.
  Tracer::Span flush = tracer_->StartSpan("move_shard.flush", move.id());
  Status flushed = source.backend->Flush();
  if (!flushed.ok()) return flushed;
  flush.End();

  // 2. Serialize the shard's sketch group — the wire snapshot states ARE
  //    the handoff transfer format. A shard that never ingested has no
  //    published state; it moves as a fresh cell.
  Tracer::Span serialize = tracer_->StartSpan("move_shard.serialize", move.id());
  std::vector<std::string> frames;
  frames.reserve(options_.sketches.size());
  uint64_t state_bytes = 0;
  bool published = false;
  for (size_t i = 0; i < options_.sketches.size(); ++i) {
    auto snap = source.backend->SnapshotSerialized(i, 0);
    if (!snap.ok()) return snap.status();
    published |= !snap.value().state.empty();
    state_bytes += snap.value().state.size();
    frames.push_back(std::move(snap.value().state));
  }
  serialize.Attr("state_bytes", state_bytes);
  serialize.End();

  // 3. Build the destination cell and import. Any failure leaves the
  //    topology (and the source placement) exactly as it was.
  Tracer::Span import = tracer_->StartSpan("move_shard.import", move.id());
  auto dest = BuildCell(factory, shard);
  if (!dest.ok()) return dest.status();
  if (published) {
    Status imported = dest.value().backend->ImportShardState(frames);
    if (!imported.ok()) return imported;
  }
  import.End();

  // 4. Re-point the shard id. The source cell's state is left in place —
  //    readers holding an older topology view keep folding it until they
  //    re-acquire; new views fold the destination, which now carries the
  //    full history. The retired placement is reclaimed when the last view
  //    referencing it drops (shared ownership, see ShardPlacement).
  auto next =
      ShardTopology::WithMovedShard(*view, shard, std::move(dest).value());
  if (!next.ok()) return next.status();
  topology_->Install(std::move(next).value());

  move.Attr("state_bytes", state_bytes);
  move.Attr("generation", topology_->View()->generation);
  move.End();
  return Status::OK();
}

Status Client::DoMoveSlots(size_t source, const std::vector<uint32_t>& slots,
                           size_t dest) {
  std::shared_ptr<const TopologyView> view = topology_->View();
  if (source >= view->num_shards()) {
    return Status::OutOfRange("Client: MoveSlots source out of range");
  }
  if (dest >= view->num_shards()) {
    return Status::OutOfRange("Client: MoveSlots dest out of range");
  }
  // A migration must never target a shard that cannot serve: the moved
  // slots' traffic would drop into the hole the supervisor is about to
  // (or already did) declare dead. The autoscaler filters destinations by
  // health before deciding; this guard covers direct callers too.
  if (HealthFor(dest).health.load(std::memory_order_acquire) !=
      uint8_t(ShardHealth::kHealthy)) {
    return Status::Unavailable(
        "Client: MoveSlots destination shard is not healthy");
  }

  Tracer::Span move = tracer_->StartSpan("move_slots");
  move.Attr("source", source);
  move.Attr("dest", dest);
  move.Attr("slots", slots.size());

  // Publish the source's exact live state before re-pointing: the barrier
  // already drained its in-flight batches, and the flush pushes its
  // snapshot (the SerializeState path for remote cells) so the frozen
  // prefix of the moved slots' substreams is merge-visible from the first
  // post-move query. No state crosses cells — the source keeps its full
  // history and the destination accumulates the suffix; the merged answer
  // covers every update ever, bit-identically for the linear families.
  const ShardPlacement placement = view->placements[source];
  Tracer::Span flush = tracer_->StartSpan("move_slots.flush", move.id());
  Status flushed = placement.backend->Flush();
  if (!flushed.ok()) return flushed;
  flush.End();

  auto next = ShardTopology::WithMovedSlots(*view, slots, dest);
  if (!next.ok()) return next.status();
  topology_->Install(std::move(next).value());

  move.Attr("generation", topology_->View()->generation);
  move.End();
  return Status::OK();
}

// ---- fault tolerance -------------------------------------------------------

Client::ShardHealthState& Client::HealthFor(size_t shard) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  while (health_.size() <= shard) health_.emplace_back();
  return health_[shard];  // deque: stable for the engine's lifetime
}

ShardHealthInfo Client::Health(size_t shard) const {
  ShardHealthInfo info;
  // An id the topology never issued has no health slot; HealthFor would
  // grow one (and every slot below it) on demand.
  if (shard >= num_shards()) return info;
  ShardHealthState& h = HealthFor(shard);
  info.health = ShardHealth(h.health.load(std::memory_order_acquire));
  info.missed_heartbeats = h.missed.load(std::memory_order_relaxed);
  const uint64_t applied = h.applied.load(std::memory_order_relaxed);
  const uint64_t at_ckpt =
      h.applied_at_checkpoint.load(std::memory_order_relaxed);
  info.updates_acked_unsnapshotted = applied > at_ckpt ? applied - at_ckpt : 0;
  info.dropped_updates = h.dropped.load(std::memory_order_relaxed);
  info.recoveries = h.recoveries.load(std::memory_order_relaxed);
  info.updates_lost_total = h.lost_total.load(std::memory_order_relaxed);
  return info;
}

Status Client::Checkpoint() {
  return RunAtBarrier([this] { return DoCheckpoint(); });
}

Status Client::DoCheckpoint() {
  Tracer::Span span = tracer_->StartSpan("checkpoint");
  std::shared_ptr<const TopologyView> view = topology_->View();
  size_t snapshotted = 0;
  for (size_t shard = 0; shard < view->num_shards(); ++shard) {
    Status s = DoCheckpointShard(shard, *view);
    if (s.ok()) {
      ++snapshotted;
      continue;
    }
    // An unreachable shard keeps its previous checkpoint — skipping it is
    // the point of checkpointing the others; any non-transport failure
    // aborts (the cut would be inconsistent).
    if (s.code() != Status::Code::kUnavailable) return s;
  }
  span.Attr("shards_snapshotted", snapshotted);
  span.End();
  return Status::OK();
}

Status Client::DoCheckpointShard(size_t shard, const TopologyView& view) {
  ShardHealthState& h = HealthFor(shard);
  // kSuspect is an unconfirmed verdict (one missed probe, possibly against
  // a just-retired placement) — attempt the cut and let the transport
  // decide; only a confirmed-dead shard is skipped outright.
  if (h.health.load(std::memory_order_acquire) ==
      uint8_t(ShardHealth::kDead)) {
    return Status::Unavailable(
        "Client: shard unreachable; previous checkpoint kept");
  }
  const ShardPlacement placement = view.placements[shard];
  // Publish first so the serialized frames are the shard's exact live
  // state — the caller is at a barrier, so the state is quiescent and the
  // applied counter read below is exactly the cut the frames capture.
  Status flushed = placement.backend->Flush();
  if (!flushed.ok()) return flushed;
  ShardCheckpoint ckpt;
  ckpt.frames.reserve(options_.sketches.size());
  for (size_t i = 0; i < options_.sketches.size(); ++i) {
    auto snap = placement.backend->SnapshotSerialized(i, 0);
    if (!snap.ok()) return snap.status();
    ckpt.frames.push_back(std::move(snap.value().state));
  }
  const uint64_t applied = h.applied.load(std::memory_order_acquire);
  ckpt.applied = applied;
  ckpt.valid = true;
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    if (checkpoints_.size() <= shard) checkpoints_.resize(shard + 1);
    checkpoints_[shard] = std::move(ckpt);
  }
  h.applied_at_checkpoint.store(applied, std::memory_order_release);
  return Status::OK();
}

Status Client::RecoverShard(size_t shard, BackendFactory factory) {
  return RunAtBarrier([this, shard, factory = std::move(factory)] {
    return DoRecoverShard(shard, factory);
  });
}

Status Client::DoRecoverShard(size_t shard, const BackendFactory& factory,
                              const ShardBackend* expected) {
  std::shared_ptr<const TopologyView> view = topology_->View();
  if (shard >= view->num_shards()) {
    return Status::OutOfRange("Client: RecoverShard id out of range");
  }
  if (expected != nullptr &&
      view->placements[shard].backend.get() != expected) {
    // The placement this death verdict referred to was already re-homed by
    // a concurrent drill or manual rescue — recovering again would roll the
    // NEW cell back to an older checkpoint, discarding acked updates. Undo
    // the stale verdict instead: the current placement was never observed
    // unhealthy.
    ShardHealthState& h = HealthFor(shard);
    h.missed.store(0, std::memory_order_release);
    uint8_t dead = uint8_t(ShardHealth::kDead);
    h.health.compare_exchange_strong(dead, uint8_t(ShardHealth::kHealthy),
                                     std::memory_order_acq_rel);
    return Status::OK();
  }
  Tracer::Span span = tracer_->StartSpan("recover_shard");
  span.Attr("shard", shard);

  ShardCheckpoint ckpt;
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    if (shard < checkpoints_.size()) ckpt = checkpoints_[shard];
  }

  // Build the replacement cell and restore the checkpointed cut into it —
  // the MoveShard transfer format, with the dead placement's role played
  // by its last checkpoint. No checkpoint = an empty (but correctly
  // seeded) cell: the shard restarts its history rather than blocking.
  auto fresh =
      BuildCell(factory ? factory : options_.failover.recovery_backend, shard);
  if (!fresh.ok()) return fresh.status();
  bool restored = false;
  if (ckpt.valid) {
    for (const std::string& frame : ckpt.frames) restored |= !frame.empty();
    if (restored) {
      Status imported = fresh.value().backend->ImportShardState(ckpt.frames);
      if (!imported.ok()) return imported;
    }
  }
  auto next =
      ShardTopology::WithMovedShard(*view, shard, std::move(fresh).value());
  if (!next.ok()) return next.status();
  topology_->Install(std::move(next).value());

  // Exact bounded-loss accounting: every update acked after the restored
  // cut, plus everything dropped while degraded, is gone. The baseline
  // resets to the checkpoint the new cell actually carries.
  ShardHealthState& h = HealthFor(shard);
  const uint64_t base = ckpt.valid ? ckpt.applied : 0;
  const uint64_t applied = h.applied.load(std::memory_order_acquire);
  const uint64_t lost = (applied > base ? applied - base : 0) +
                        h.dropped.exchange(0, std::memory_order_acq_rel);
  h.lost_total.fetch_add(lost, std::memory_order_relaxed);
  h.recoveries.fetch_add(1, std::memory_order_relaxed);
  h.applied.store(base, std::memory_order_release);
  h.applied_at_checkpoint.store(base, std::memory_order_release);
  h.missed.store(0, std::memory_order_release);
  h.health.store(uint8_t(ShardHealth::kHealthy), std::memory_order_release);

  span.Attr("updates_lost", lost);
  span.Attr("restored", restored ? 1 : 0);
  span.Attr("generation", topology_->View()->generation);
  span.End();
  return Status::OK();
}

Status Client::FailoverDrill(size_t shard, bool torn,
                             BackendFactory factory) {
  return RunAtBarrier([this, shard, torn, factory = std::move(factory)] {
    std::shared_ptr<const TopologyView> view = topology_->View();
    if (shard >= view->num_shards()) {
      return Status::OutOfRange("Client: FailoverDrill id out of range");
    }
    Tracer::Span span = tracer_->StartSpan("failover_drill");
    span.Attr("shard", shard);
    // Checkpoint and crash share this one barrier, so the crash loses
    // exactly nothing: the recovery below restores the cut taken here and
    // queued producer batches only dispatch after the drill completes.
    Status ck = DoCheckpointShard(shard, *view);
    if (!ck.ok()) return ck;
    const ShardPlacement placement = view->placements[shard];
    Status crash = placement.backend->InjectCrash(torn);
    if (!crash.ok()) return crash;  // Unimplemented for in-process cells
    // Observe the death the way live traffic would: a torn frame must be
    // rejected by the data channel's CRC check (wire.crc_rejects_total), a
    // clean crash by a failed control-channel heartbeat.
    if (torn) {
      (void)placement.backend->ApplyBatch(nullptr, 0);
    } else {
      (void)placement.backend->Heartbeat(
          options_.failover.heartbeat_timeout_ms);
    }
    HealthFor(shard).health.store(uint8_t(ShardHealth::kDead),
                                  std::memory_order_release);
    Status rec = DoRecoverShard(shard, factory);
    span.End();
    return rec;
  });
}

Status Client::InjectShardCrash(size_t shard, bool torn) {
  std::shared_ptr<const TopologyView> view = topology_->View();
  if (shard >= view->num_shards()) {
    return Status::OutOfRange("Client: InjectShardCrash id out of range");
  }
  const ShardPlacement placement = view->placements[shard];
  return placement.backend->InjectCrash(torn);
}

Status Client::InjectShardPartition(size_t shard) {
  std::shared_ptr<const TopologyView> view = topology_->View();
  if (shard >= view->num_shards()) {
    return Status::OutOfRange("Client: InjectShardPartition id out of range");
  }
  const ShardPlacement placement = view->placements[shard];
  return placement.backend->InjectPartition();
}

void Client::SupervisorLoop() {
  const FailoverOptions& fo = options_.failover;
  const auto interval = std::chrono::milliseconds(
      fo.heartbeat_interval_ms > 0 ? fo.heartbeat_interval_ms
                                   : fo.checkpoint_interval_ms);
  auto next_checkpoint =
      MonoClock::now() + std::chrono::milliseconds(fo.checkpoint_interval_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(sup_mu_);
      sup_cv_.wait_for(lock, interval, [&] { return supervisor_stop_; });
      if (supervisor_stop_) return;
    }
    if (has_error_.load(std::memory_order_acquire)) continue;
    const auto now = MonoClock::now();
    if (supervision_enabled()) {
      std::shared_ptr<const TopologyView> view = topology_->View();
      for (size_t shard = 0; shard < view->num_shards(); ++shard) {
        ShardHealthState& h = HealthFor(shard);
        const uint8_t state = h.health.load(std::memory_order_acquire);
        if (state == uint8_t(ShardHealth::kDead)) continue;  // awaiting rescue
        if (now < h.next_probe) continue;  // exponential backoff in effect
        const ShardPlacement placement = view->placements[shard];
        Status hb = placement.backend->Heartbeat(fo.heartbeat_timeout_ms);
        if (hb.ok()) {
          h.missed.store(0, std::memory_order_release);
          h.backoff_misses = 0;
          h.next_probe = now;
          uint8_t suspect = uint8_t(ShardHealth::kSuspect);
          h.health.compare_exchange_strong(suspect,
                                           uint8_t(ShardHealth::kHealthy),
                                           std::memory_order_acq_rel);
          continue;
        }
        if (topology_->View()->generation != view->generation) {
          // The topology moved under this sweep: the probe may have hit a
          // placement that was retired (and legitimately crashed by a
          // drill) while the sweep ran. The verdict is void — the next
          // sweep re-probes the shard's CURRENT placement.
          continue;
        }
        const uint64_t missed =
            1 + h.missed.fetch_add(1, std::memory_order_acq_rel);
        h.backoff_misses = missed;
        const uint64_t mult = std::min<uint64_t>(
            missed < 63 ? uint64_t(1) << missed : kBackoffMaxMultiplier,
            kBackoffMaxMultiplier);
        h.next_probe = now + interval * mult;
        if (!placement.endpoint.empty()) {
          // Per-host failure domain: one missed probe on an endpoint
          // implicates every placement it hosts — a dead machine takes all
          // its shards down together, so they all go suspect now instead
          // of one probe victim per sweep. Each still earns its own death
          // verdict (dead_after_misses consecutive misses of ITS probes).
          for (size_t other = 0; other < view->num_shards(); ++other) {
            if (other == shard) continue;
            if (view->placements[other].endpoint != placement.endpoint) {
              continue;
            }
            uint8_t healthy = uint8_t(ShardHealth::kHealthy);
            if (HealthFor(other).health.compare_exchange_strong(
                    healthy, uint8_t(ShardHealth::kSuspect),
                    std::memory_order_acq_rel)) {
              Tracer::Span hs = tracer_->StartSpan("host_suspect");
              hs.Attr("shard", other);
              hs.Attr("via_shard", shard);
              hs.End();
            }
          }
        }
        if (missed >= fo.dead_after_misses) {
          const uint8_t prev = h.health.exchange(uint8_t(ShardHealth::kDead),
                                                 std::memory_order_acq_rel);
          if (prev != uint8_t(ShardHealth::kDead)) {
            Tracer::Span dead = tracer_->StartSpan("shard_dead");
            dead.Attr("shard", shard);
            dead.Attr("missed_heartbeats", missed);
            dead.End();
            if (fo.auto_recover) {
              // Pin the recovery to the placement that was observed dead:
              // if someone re-homes the shard before the barrier admits
              // this op, it must not roll the fresh cell back. The
              // observed placement's shared_ptr (`placement`) outlives the
              // blocking call, so the pointer cannot be recycled.
              const ShardBackend* observed = placement.backend.get();
              Status rec = RunAtBarrier([this, shard, observed, &fo] {
                return DoRecoverShard(shard, fo.recovery_backend, observed);
              });
              // FailedPrecondition = the engine is finishing; not an error.
              if (!rec.ok() &&
                  rec.code() != Status::Code::kFailedPrecondition) {
                RecordError(rec);
              }
            }
          }
        } else {
          uint8_t healthy = uint8_t(ShardHealth::kHealthy);
          if (h.health.compare_exchange_strong(healthy,
                                               uint8_t(ShardHealth::kSuspect),
                                               std::memory_order_acq_rel)) {
            Tracer::Span sus = tracer_->StartSpan("shard_suspect");
            sus.Attr("shard", shard);
            sus.Attr("missed_heartbeats", missed);
            sus.End();
          }
        }
      }
    }
    if (fo.checkpoint_interval_ms > 0 && MonoClock::now() >= next_checkpoint) {
      Status ck = Checkpoint();
      if (!ck.ok() && ck.code() != Status::Code::kFailedPrecondition) {
        RecordError(ck);
      }
      next_checkpoint = MonoClock::now() +
                        std::chrono::milliseconds(fo.checkpoint_interval_ms);
    }
  }
}

void Client::StopSupervisor() {
  {
    std::lock_guard<std::mutex> lock(sup_mu_);
    supervisor_stop_ = true;
  }
  sup_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
}

// ---- completion / flush ----------------------------------------------------

Status Client::Wait(const IngestTicket& ticket) const {
  {
    std::unique_lock<std::mutex> lock(ticket_mu_);
    ticket_cv_.wait(lock, [&] { return completed_seq_ >= ticket.seq; });
  }
  return FirstError();
}

Status Client::WaitFor(const IngestTicket& ticket,
                       uint64_t timeout_ms) const {
  // Past the cap the deadline is unreachable anyway, and the clock's
  // signed count (nanoseconds inside wait_for) would overflow: wait like
  // Wait.
  constexpr uint64_t kMaxTimeoutMs = uint64_t{1} << 40;  // ~35 years
  if (timeout_ms > kMaxTimeoutMs) return Wait(ticket);
  {
    std::unique_lock<std::mutex> lock(ticket_mu_);
    if (!ticket_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [&] { return completed_seq_ >= ticket.seq; })) {
      return Status::DeadlineExceeded(
          "Client: ticket not complete within deadline");
    }
  }
  return FirstError();
}

Result<bool> Client::TryWait(const IngestTicket& ticket) const {
  bool done;
  {
    std::lock_guard<std::mutex> lock(ticket_mu_);
    done = completed_seq_ >= ticket.seq;
  }
  if (done) {
    Status err = FirstError();
    if (!err.ok()) return err;
  }
  return done;
}

Status Client::Flush() {
  // Wait for every assigned ticket to finish — that drains the session
  // queues, the router, and the worker queues in one condition (workers
  // even drain after an error, so this terminates).
  {
    std::unique_lock<std::mutex> lock(ticket_mu_);
    ticket_cv_.wait(lock, [&] { return inflight_tickets_ == 0; });
  }
  DrainWorkers();
  // Quiescent now (no in-flight tickets, empty queues): catch up any shard
  // whose snapshot lags its live state, so post-Flush queries are exact.
  std::shared_ptr<const TopologyView> view = topology_->View();
  for (size_t shard = 0; shard < view->num_shards(); ++shard) {
    const ShardPlacement placement = view->placements[shard];
    Status s = placement.backend->Flush();
    if (!s.ok()) {
      // Degraded mode: an unreachable shard's last published snapshot
      // keeps serving (stale-flagged); it must not poison the pipeline.
      if (supervision_enabled() && s.code() == Status::Code::kUnavailable) {
        continue;
      }
      RecordError(s);
    }
  }
  return FirstError();
}

Status Client::Finish() {
  // Close the submission window FIRST, then drain. The CAS makes Finish
  // idempotent; the empty submit_mu_ critical section is a barrier: any
  // producer that passed the finished_ recheck inside EnqueueScattered
  // (or the inline path) holds submit_mu_ until its ticket is enqueued /
  // applied, so after this lock round-trip every accepted ticket is
  // visible to Flush and every later Submit is rejected — no batch
  // can slip in behind Flush's final snapshot publish.
  bool expected = false;
  if (!finished_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return FirstError();
  }
  // The control threads go first: they must not start new barrier
  // operations while the pipeline tears down. An in-flight one (a reshard
  // decision, auto-recovery, or a periodic checkpoint) drains through the
  // still-running router before the join returns; one attempted after the
  // CAS fails PreSubmit cleanly.
  if (autoscaler_ != nullptr) autoscaler_->Stop();
  StopSupervisor();
  { std::lock_guard<std::mutex> lock(submit_mu_); }
  Status s = Flush();
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    router_stop_ = true;
  }
  router_cv_.notify_all();
  if (router_.joinable()) router_.join();
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->stop = true;
    }
    worker->cv_work.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  return s;
}

Status Client::CheckQuiescent() const {
  if (finished_.load(std::memory_order_acquire)) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(ticket_mu_);
    if (inflight_tickets_ != 0) {
      return Status::FailedPrecondition(
          "Client: Flush() before querying shard state");
    }
  }
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    if (worker->pending != 0) {
      return Status::FailedPrecondition(
          "Client: Flush() before querying shard state");
    }
  }
  return Status::OK();
}

// ---- queries ---------------------------------------------------------------

Result<const SketchSummary*> Client::MergedSummaryView(
    size_t sketch_index, std::unique_lock<std::mutex>* lock) const {
  // A dead pipeline must be visible on the query path, not only at the
  // next Submit/Flush: workers stop mutating state after the first error,
  // so answers would otherwise freeze silently (and a mid-batch failure
  // can leave a shard's sketch group inconsistently applied).
  Status err = FirstError();
  if (!err.ok()) return err;
  if (sketch_index >= options_.sketches.size()) {
    return Status::OutOfRange("Client: sketch index out of range");
  }
  // The fold targets one consistent topology view; a change racing this
  // query is picked up on the next call (the generation stamp below makes
  // the cache notice).
  std::shared_ptr<const TopologyView> view = topology_->View();
  MergeCache& cache = *caches_[sketch_index];
  *lock = std::unique_lock<std::mutex>(cache.mu);

  // A stale view (loaded before a change another query already folded)
  // must not roll the cache BACK a generation — reload instead; installs
  // are monotone, so the reloaded view is at least the cache's generation.
  if (view->generation < cache.generation) view = topology_->View();

  // Topology changes invalidate wholesale: the shard count or a placement
  // changed under the cache, so per-shard epoch bookkeeping from the old
  // generation is meaningless (a handoff destination restarts its epochs).
  const size_t num_shards = view->num_shards();
  if (cache.generation != view->generation) {
    cache.generation = view->generation;
    cache.folded.assign(num_shards, nullptr);
    cache.epochs.assign(num_shards, 0);
    cache.valid = false;
    cache.merged.reset();
  }

  // One conditional read per shard: its epoch, plus its published state
  // when that epoch is newer than the one the cache folded (an atomic load
  // in process, one round trip over a remote transport). Epochs only
  // advance within a placement, and the reset above restarts them with the
  // generation, so "newer" is exactly "changed".
  // With supervision on, an unreachable shard does NOT fail the query —
  // its last folded snapshot keeps answering and the summary is flagged
  // stale until the shard recovers (the recovery's generation bump then
  // forces a fresh fold, which clears the flag).
  struct Dirty {  // a shard whose read came back newer than the cache's fold
    size_t shard;
    std::shared_ptr<const Sketch> sketch;  ///< published at `epoch`
    uint64_t epoch;
  };
  bool unreachable = false;
  std::vector<Dirty> dirty;
  for (size_t s = 0; s < num_shards; ++s) {
    const ShardPlacement placement = view->placements[s];
    auto snap = placement.backend->Snapshot(sketch_index, cache.epochs[s]);
    if (!snap.ok()) {
      if (supervision_enabled() &&
          snap.status().code() == Status::Code::kUnavailable) {
        unreachable = true;
        continue;  // serve the shard's last folded state
      }
      return snap.status();
    }
    if (snap.value().epoch <= cache.epochs[s]) continue;
    dirty.push_back({s, std::move(snap.value().sketch), snap.value().epoch});
  }
  if (dirty.empty() && cache.valid) {
    ++cache.hits;
    cache.summary.stale = unreachable;  // recomputed on every serve
    return &cache.summary;
  }

  // Incremental path: subtract each dirty shard's stale contribution and
  // add the fresh one. Worth it only when most shards are clean; the first
  // Unimplemented disables it for this sketch permanently (completed
  // shard pairs leave `merged` consistent, so falling through to a full
  // rebuild — which ignores `merged` — is always safe).
  bool incremental = cache.valid && cache.merged && cache.try_unmerge &&
                     !dirty.empty() && dirty.size() < num_shards;
  if (incremental) {
    for (const Dirty& d : dirty) {
      if (cache.folded[d.shard] != nullptr) {
        Status st = cache.merged->UnmergeFrom(*cache.folded[d.shard]);
        if (st.code() == Status::Code::kUnimplemented) {
          cache.try_unmerge = false;
          incremental = false;
          break;
        }
        if (!st.ok()) {
          cache.valid = false;
          cache.merged.reset();
          return st;
        }
      }
      if (d.sketch != nullptr) {
        Status st = cache.merged->MergeFrom(*d.sketch);
        if (!st.ok()) {
          cache.valid = false;
          cache.merged.reset();
          return st;
        }
      }
      cache.folded[d.shard] = d.sketch;
      cache.epochs[d.shard] = d.epoch;
    }
  }

  if (!incremental) {
    for (const Dirty& d : dirty) {
      cache.folded[d.shard] = d.sketch;
      cache.epochs[d.shard] = d.epoch;
    }
    SketchConfig cfg = options_.config;
    cfg.shard_seed = MergeSeedFor(options_.config);
    auto target =
        SketchRegistry::Global().Create(options_.sketches[sketch_index], cfg);
    if (!target.ok()) return target.status();
    cache.merged = std::move(target).value();
    for (const auto& snap : cache.folded) {
      if (snap == nullptr) continue;
      Status st = cache.merged->MergeFrom(*snap);
      if (!st.ok()) {
        cache.valid = false;
        cache.merged.reset();
        return st;
      }
    }
    ++cache.rebuilds;
  } else {
    ++cache.incremental;
  }

  cache.summary = cache.merged->Summary();
  cache.summary.stale = unreachable;
  cache.valid = true;
  return &cache.summary;
}

Result<PointEstimate> Client::QueryPoint(const SketchHandle& handle,
                                         uint64_t item) const {
  auto index = CheckHandle(
      handle, "point-estimate",
      handle.family_ == SketchFamily::kHeavyHitter ||
          handle.family_ == SketchFamily::kGeneric);
  if (!index.ok()) return index.status();
  std::unique_lock<std::mutex> lock;
  auto view = MergedSummaryView(index.value(), &lock);
  if (!view.ok()) return view.status();
  const SketchSummary& summary = *view.value();
  PointEstimate out;
  out.item = item;
  out.estimate = summary.Estimate(item);  // O(log n) via the by-item index
  out.tracked = out.estimate != 0;
  out.updates = summary.updates;
  out.stale = summary.stale;
  return out;
}

Result<TopK> Client::QueryTopK(const SketchHandle& handle, size_t k) const {
  auto index = CheckHandle(
      handle, "top-k",
      handle.family_ == SketchFamily::kHeavyHitter ||
          handle.family_ == SketchFamily::kGeneric);
  if (!index.ok()) return index.status();
  if (k == 0) {
    return Status::InvalidArgument("Client: top-k query requires k > 0");
  }
  std::unique_lock<std::mutex> lock;
  auto view = MergedSummaryView(index.value(), &lock);
  if (!view.ok()) return view.status();
  const SketchSummary& summary = *view.value();
  TopK out;
  out.updates = summary.updates;
  out.stale = summary.stale;
  const size_t n = std::min(k, summary.items.size());
  if (summary.item_index.size() == summary.items.size()) {
    // Producer called SortItems(): items are already estimate-descending.
    out.items.assign(summary.items.begin(), summary.items.begin() + n);
    return out;
  }
  // kGeneric sketches may skip SortItems; enforce the TopK contract on a
  // copy (never mutate the shared cached summary).
  out.items = summary.items;
  std::partial_sort(out.items.begin(), out.items.begin() + n,
                    out.items.end(),
                    [](const hh::WeightedItem& a, const hh::WeightedItem& b) {
                      return a.estimate > b.estimate ||
                             (a.estimate == b.estimate && a.item < b.item);
                    });
  out.items.resize(n);
  return out;
}

Result<ScalarEstimate> Client::QueryScalar(const SketchHandle& handle) const {
  auto index = CheckHandle(
      handle, "scalar-estimate",
      handle.family_ == SketchFamily::kScalarEstimate ||
          handle.family_ == SketchFamily::kGeneric);
  if (!index.ok()) return index.status();
  std::unique_lock<std::mutex> lock;
  auto view = MergedSummaryView(index.value(), &lock);
  if (!view.ok()) return view.status();
  const SketchSummary& summary = *view.value();
  if (!summary.has_scalar) {
    return Status::InvalidArgument(
        "Client: sketch " + options_.sketches[handle.index_] +
        " produced no scalar answer");
  }
  return ScalarEstimate{summary.scalar, summary.updates, summary.stale};
}

Result<RankVerdict> Client::QueryRank(const SketchHandle& handle) const {
  auto index = CheckHandle(
      handle, "rank-verdict",
      handle.family_ == SketchFamily::kRankVerdict ||
          handle.family_ == SketchFamily::kGeneric);
  if (!index.ok()) return index.status();
  std::unique_lock<std::mutex> lock;
  auto view = MergedSummaryView(index.value(), &lock);
  if (!view.ok()) return view.status();
  const SketchSummary& summary = *view.value();
  if (!summary.has_scalar) {
    return Status::InvalidArgument(
        "Client: sketch " + options_.sketches[handle.index_] +
        " produced no rank verdict");
  }
  return RankVerdict{summary.scalar != 0, summary.updates, summary.stale};
}

Result<SketchSummary> Client::RawSummary(const SketchHandle& handle) const {
  auto index = CheckHandle(handle, "raw-summary", /*allowed_for_family=*/true);
  if (!index.ok()) return index.status();
  std::unique_lock<std::mutex> lock;
  auto view = MergedSummaryView(index.value(), &lock);
  if (!view.ok()) return view.status();
  return *view.value();  // copy out while the cache lock is held
}

namespace {

MetricSample RawCounter(std::string name, uint64_t value) {
  MetricSample s;
  s.name = std::move(name);
  s.kind = MetricKind::kCounter;
  s.value = value;
  return s;
}

}  // namespace

MetricsSnapshot Client::Metrics() const {
  MetricsSnapshot snap;
  snap.uptime_us = ElapsedUs(start_time_);

  // 1. The registered engine.* instruments (relaxed loads, no locks).
  if (metrics_ != nullptr) {
    snap.samples = metrics_->registry().Snapshot();
  }

  // 2. Derived health gauges. The valve/inflight levels live under
  //    ticket_mu_ (they are the turnstile's bookkeeping, not instruments);
  //    one short lock reads them consistently.
  snap.samples.push_back(
      GaugeSample("engine.uptime_us", int64_t(snap.uptime_us)));
  snap.samples.push_back(
      RawCounter("engine.updates_submitted_total", updates_submitted()));
  {
    std::lock_guard<std::mutex> lock(ticket_mu_);
    snap.samples.push_back(
        GaugeSample("engine.inflight_tickets", int64_t(inflight_tickets_)));
    snap.samples.push_back(
        GaugeSample("engine.inflight_bytes", int64_t(inflight_bytes_)));
    snap.samples.push_back(GaugeSample(
        "engine.valve.waiters", int64_t(valve_next_ - valve_serving_)));
  }
  std::shared_ptr<const TopologyView> view = topology_->View();
  snap.samples.push_back(
      GaugeSample("engine.topology.generation", int64_t(view->generation)));
  snap.samples.push_back(
      GaugeSample("engine.topology.num_shards", int64_t(view->num_shards())));

  // 3. Per-shard ingest rate, derived from the shard counters and uptime.
  if (metrics_ != nullptr && snap.uptime_us > 0) {
    const size_t tracked = metrics_->shard_count();
    for (size_t s = 0; s < tracked; ++s) {
      const uint64_t updates = metrics_->shard(s)->updates_total->Value();
      const uint64_t per_sec = updates * 1000000 / snap.uptime_us;
      snap.samples.push_back(
          GaugeSample("engine.shard." + std::to_string(s) + ".updates_per_sec",
                      int64_t(per_sec)));
    }
  }

  // 4. Per-shard backend samples (epoch, snapshot lag, serialize latency;
  //    wire traffic for remote cells), prefixed with the GLOBAL shard id,
  //    plus the health/failover surface. A shard whose backend cannot
  //    report (e.g. a torn-down remote channel) is skipped rather than
  //    failing the whole snapshot — observability must degrade, not block —
  //    but the failed poll is COUNTED (metrics_errors_total): a placement
  //    that stops reporting is itself a signal.
  uint64_t recoveries_total = 0;
  uint64_t updates_lost_total = 0;
  for (size_t s = 0; s < view->num_shards(); ++s) {
    const ShardPlacement placement = view->placements[s];
    const std::string prefix = "engine.shard." + std::to_string(s) + ".";
    auto samples = placement.backend->Metrics();
    if (!samples.ok()) {
      HealthFor(s).metrics_errors.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (MetricSample& sample : samples.value()) {
        sample.name = prefix + sample.name;
        snap.samples.push_back(std::move(sample));
      }
    }
    const ShardHealthInfo info = Health(s);
    recoveries_total += info.recoveries;
    updates_lost_total += info.updates_lost_total;
    snap.samples.push_back(
        GaugeSample(prefix + "health", int64_t(info.health)));
    snap.samples.push_back(GaugeSample(prefix + "missed_heartbeats",
                                       int64_t(info.missed_heartbeats)));
    snap.samples.push_back(
        GaugeSample(prefix + "updates_acked_unsnapshotted",
                    int64_t(info.updates_acked_unsnapshotted)));
    snap.samples.push_back(GaugeSample(prefix + "dropped_updates",
                                       int64_t(info.dropped_updates)));
    snap.samples.push_back(
        RawCounter(prefix + "recoveries_total", info.recoveries));
    snap.samples.push_back(
        RawCounter(prefix + "updates_lost_total", info.updates_lost_total));
    snap.samples.push_back(RawCounter(
        prefix + "metrics_errors_total",
        HealthFor(s).metrics_errors.load(std::memory_order_relaxed)));
  }
  snap.samples.push_back(
      RawCounter("engine.failover.recoveries_total", recoveries_total));
  snap.samples.push_back(
      RawCounter("engine.failover.updates_lost_total", updates_lost_total));

  // 5. Per-sketch merge-cache counters — read from the caches' own
  //    bookkeeping under their mutexes (the query path maintains them; no
  //    double accounting).
  for (size_t i = 0; i < options_.sketches.size(); ++i) {
    uint64_t hits = 0;
    uint64_t incremental = 0;
    uint64_t rebuilds = 0;
    {
      MergeCache& cache = *caches_[i];
      std::lock_guard<std::mutex> lock(cache.mu);
      hits = cache.hits;
      incremental = cache.incremental;
      rebuilds = cache.rebuilds;
    }
    const std::string prefix =
        "engine.sketch." + options_.sketches[i] + ".merge_cache.";
    snap.samples.push_back(RawCounter(prefix + "hits_total", hits));
    snap.samples.push_back(
        RawCounter(prefix + "incremental_total", incremental));
    snap.samples.push_back(RawCounter(prefix + "rebuilds_total", rebuilds));
  }
  return snap;
}

uint64_t Client::ShardEpoch(size_t shard) const {
  std::shared_ptr<const TopologyView> view = topology_->View();
  if (shard >= view->num_shards()) return 0;
  const ShardPlacement placement = view->placements[shard];
  auto snap = placement.backend->Snapshot(0, kEpochOnly);
  return snap.ok() ? snap.value().epoch : 0;
}

Result<SketchSummary> Client::ShardSummary(
    size_t shard, const std::string& sketch) const {
  Status quiescent = CheckQuiescent();
  if (!quiescent.ok()) return quiescent;
  std::shared_ptr<const TopologyView> view = topology_->View();
  if (shard >= view->num_shards()) {
    return Status::OutOfRange("Client: shard index out of range");
  }
  const size_t index = SketchIndex(sketch);
  if (index == options_.sketches.size()) {
    return Status::NotFound("Client: sketch not configured: " + sketch);
  }
  // At quiescence a flushed cell's published state is its live state: a
  // publication is a fresh instance folded from the live one.
  const ShardPlacement placement = view->placements[shard];
  Status flushed = placement.backend->Flush();
  if (!flushed.ok()) return flushed;
  auto snap = placement.backend->Snapshot(index, 0);
  if (!snap.ok()) return snap.status();
  if (snap.value().sketch != nullptr) return snap.value().sketch->Summary();
  // Never published, so never ingested: the summary of an empty cell.
  auto empty = SketchRegistry::Global().Create(
      sketch, ShardConfigFor(options_.config, shard));
  if (!empty.ok()) return empty.status();
  return empty.value()->Summary();
}

uint64_t Client::SpaceBits() const {
  std::shared_ptr<const TopologyView> view = topology_->View();
  uint64_t bits = 0;
  for (const ShardPlacement& placement : view->placements) {
    bits += placement.backend->SpaceBits();
  }
  return bits;
}

}  // namespace wbs::engine
