// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "engine/autoscaler.h"

#include <algorithm>
#include <chrono>

#include "engine/client.h"
#include "engine/metrics.h"
#include "engine/topology.h"
#include "engine/trace.h"

namespace wbs::engine {

namespace {

uint64_t NowUs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

}  // namespace

Autoscaler::Autoscaler(Client* client, AutoscaleOptions options)
    : client_(client), options_(std::move(options)) {
  EngineMetrics* m = client_->metrics_.get();
  if (m != nullptr) {
    MetricsRegistry& reg = m->registry();
    evaluations_total_ = reg.NewCounter("engine.autoscaler.evaluations_total");
    scaleouts_total_ = reg.NewCounter("engine.autoscaler.scaleouts_total");
    slot_moves_total_ = reg.NewCounter("engine.autoscaler.slot_moves_total");
    cooldown_suppressed_total_ =
        reg.NewCounter("engine.autoscaler.cooldown_suppressed_total");
    shards_added_total_ =
        reg.NewCounter("engine.autoscaler.shards_added_total");
    slots_moved_total_ = reg.NewCounter("engine.autoscaler.slots_moved_total");
    op_failures_total_ = reg.NewCounter("engine.autoscaler.op_failures_total");
    mean_rate_gauge_ =
        reg.NewGauge("engine.autoscaler.mean_updates_per_sec");
    max_rate_gauge_ = reg.NewGauge("engine.autoscaler.max_updates_per_sec");
    max_queue_depth_gauge_ =
        reg.NewGauge("engine.autoscaler.max_queue_depth");
  }
}

Autoscaler::~Autoscaler() { Stop(); }

void Autoscaler::Start() {
  if (options_.evaluation_interval_ms == 0) return;  // manual mode
  if (running_.exchange(true)) return;
  stop_.store(false, std::memory_order_release);
  controller_ = std::thread([this] { ControllerLoop(); });
}

void Autoscaler::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_.store(true, std::memory_order_release);
  }
  stop_cv_.notify_all();
  if (controller_.joinable()) controller_.join();
  running_.store(false, std::memory_order_release);
}

void Autoscaler::ControllerLoop() {
  const auto period = std::chrono::milliseconds(options_.evaluation_interval_ms);
  while (!stop_.load(std::memory_order_acquire)) {
    EvaluateOnce();
    std::unique_lock<std::mutex> lock(stop_mu_);
    stop_cv_.wait_for(lock, period, [this] {
      return stop_.load(std::memory_order_acquire);
    });
  }
}

AutoscaleDecision Autoscaler::EvaluateOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  if (evaluations_total_ != nullptr) evaluations_total_->Inc();
  return DecideLocked();
}

AutoscaleDecision Autoscaler::DecideLocked() {
  AutoscaleDecision decision;
  const uint64_t now = NowUs();
  std::shared_ptr<const TopologyView> view = client_->topology_->View();
  const size_t num_shards = view->num_shards();
  EngineMetrics* metrics = client_->metrics_.get();
  if (metrics == nullptr || num_shards == 0) return decision;

  // ---- sample & EWMA-smooth per-shard ingest rates ----------------------
  // Rates come from counter DELTAS between evaluations, not from lifetime
  // averages: the controller must see the spike, not the history diluting
  // it. The first sight of a shard only records its baseline.
  if (samples_.size() < num_shards) samples_.resize(num_shards);
  const bool first_eval = last_eval_us_ == 0;
  const double elapsed_s =
      double(std::max<uint64_t>(now - last_eval_us_, 1000)) / 1e6;
  last_eval_us_ = now;
  double sum_rate = 0.0;
  double max_rate = 0.0;
  size_t hottest = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const uint64_t updates = metrics->shard(s)->updates_total->Value();
    ShardSample& sample = samples_[s];
    if (sample.seen && !first_eval) {
      const double raw = double(updates - sample.updates_total) / elapsed_s;
      const double a = std::clamp(options_.ewma_alpha, 0.0, 1.0);
      sample.rate = a * raw + (1.0 - a) * sample.rate;
    }
    sample.updates_total = updates;
    sample.seen = true;
    sum_rate += sample.rate;
    if (sample.rate > max_rate) {
      max_rate = sample.rate;
      hottest = s;
    }
  }
  const double mean_rate = sum_rate / double(num_shards);
  decision.mean_rate = mean_rate;
  decision.max_rate = max_rate;
  if (mean_rate_gauge_ != nullptr) {
    mean_rate_gauge_->Set(int64_t(mean_rate));
    max_rate_gauge_->Set(int64_t(max_rate));
  }

  // ---- sample valve pressure & worker queue depth -----------------------
  uint64_t valve_waiters = 0;
  {
    std::lock_guard<std::mutex> tlock(client_->ticket_mu_);
    valve_waiters = client_->valve_next_ - client_->valve_serving_;
  }
  int64_t max_queue_depth = 0;
  for (size_t w = 0; w < client_->workers_.size(); ++w) {
    max_queue_depth =
        std::max(max_queue_depth, metrics->worker(w)->queue_depth->Value());
  }
  if (max_queue_depth_gauge_ != nullptr) {
    max_queue_depth_gauge_->Set(max_queue_depth);
  }
  if (first_eval) return decision;  // baselines only; no rates yet

  // ---- score against the targets ----------------------------------------
  const bool over_high = options_.high_watermark_updates_per_sec > 0.0 &&
                         mean_rate > options_.high_watermark_updates_per_sec;
  const bool valve_pressure =
      options_.scale_on_valve_pressure && valve_waiters > 0;
  const bool want_scaleout =
      (over_high || valve_pressure) && num_shards < options_.max_shards;

  bool want_slot_move = false;
  size_t dest = num_shards;
  std::vector<uint32_t> slots;
  if (!want_scaleout && num_shards >= 2 &&
      mean_rate > options_.low_watermark_updates_per_sec &&
      max_rate > options_.imbalance_ratio * mean_rate &&
      view->SlotsOwnedBy(hottest) >= 2) {
    // Peel the hottest slots off the hottest shard — if slot heat is
    // visible (sampling on) and a healthy destination exists.
    std::vector<uint64_t> heat = client_->SlotHeat();
    if (!heat.empty()) {
      dest = PickDestinationLocked(hottest, num_shards);
      if (dest < num_shards) {
        if (prev_heat_.size() < heat.size()) prev_heat_.resize(heat.size(), 0);
        std::vector<uint32_t> owned = view->OwnedSlotIds(hottest);
        // Hottest slots first (heat delta since the last evaluation; ties
        // to the lower slot id for determinism); the source always keeps
        // at least one slot.
        std::stable_sort(owned.begin(), owned.end(),
                         [&](uint32_t a, uint32_t b) {
                           return heat[a] - prev_heat_[a] >
                                  heat[b] - prev_heat_[b];
                         });
        const size_t movable = std::min(options_.max_slots_per_move,
                                        owned.size() - 1);
        slots.assign(owned.begin(), owned.begin() + movable);
        std::sort(slots.begin(), slots.end());
        want_slot_move = !slots.empty();
      }
    }
    prev_heat_ = std::move(heat);
  }

  if (!want_scaleout && !want_slot_move) return decision;  // kNone

  // ---- anti-flap cooldown ------------------------------------------------
  if (has_acted_ &&
      now - last_action_us_ < options_.cooldown_ms * 1000) {
    decision.kind = AutoscaleDecision::Kind::kCooldown;
    if (cooldown_suppressed_total_ != nullptr) {
      cooldown_suppressed_total_->Inc();
    }
    Tracer::Span span =
        client_->tracer_->StartSpan("autoscale.decision");
    span.Attr("kind", uint64_t(decision.kind))
        .Attr("mean_rate", uint64_t(mean_rate))
        .Attr("max_rate", uint64_t(max_rate))
        .Attr("generation", view->generation);
    return decision;
  }

  // ---- act (one action per cycle) ---------------------------------------
  Tracer::Span span = client_->tracer_->StartSpan("autoscale.decision");
  span.Attr("mean_rate", uint64_t(mean_rate))
      .Attr("max_rate", uint64_t(max_rate))
      .Attr("valve_waiters", valve_waiters)
      .Attr("max_queue_depth", uint64_t(max_queue_depth))
      .Attr("generation", view->generation);
  if (want_scaleout) {
    const size_t adds =
        std::min(options_.scale_step, options_.max_shards - num_shards);
    decision.kind = AutoscaleDecision::Kind::kScaleOut;
    decision.slots.resize(adds);  // size() = shards added
    decision.status = client_->AddShards(adds, options_.backend);
    span.Attr("kind", uint64_t(decision.kind)).Attr("added", adds);
    if (scaleouts_total_ != nullptr && decision.status.ok()) {
      scaleouts_total_->Inc();
      shards_added_total_->Inc(adds);
    }
  } else {
    decision.kind = AutoscaleDecision::Kind::kMoveSlots;
    decision.source = hottest;
    decision.dest = dest;
    decision.slots = slots;
    decision.status = client_->MoveSlots(hottest, slots, dest);
    span.Attr("kind", uint64_t(decision.kind))
        .Attr("source", hottest)
        .Attr("dest", dest)
        .Attr("slots", slots.size());
    if (slot_moves_total_ != nullptr && decision.status.ok()) {
      slot_moves_total_->Inc();
      slots_moved_total_->Inc(slots.size());
    }
  }
  span.Attr("ok", decision.status.ok() ? 1 : 0);
  if (!decision.status.ok() && op_failures_total_ != nullptr) {
    op_failures_total_->Inc();
  }
  // A FAILED op still arms the cooldown: retrying a refused reshard every
  // evaluation tick is exactly the flapping this window exists to stop.
  last_action_us_ = now;
  has_acted_ = true;
  return decision;
}

size_t Autoscaler::PickDestinationLocked(size_t source, size_t num_shards) {
  // Least-loaded (smoothed rate) shard that is NOT the source and answers
  // heartbeats. A kSuspect/kDead shard is never a migration destination —
  // moving a hot slot onto a dying shard converts an imbalance into an
  // outage.
  size_t best = num_shards;
  for (size_t s = 0; s < num_shards; ++s) {
    if (s == source) continue;
    if (client_->Health(s).health != ShardHealth::kHealthy) continue;
    if (best == num_shards || samples_[s].rate < samples_[best].rate) {
      best = s;
    }
  }
  return best;
}

}  // namespace wbs::engine
