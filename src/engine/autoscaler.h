// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Autoscaler — the engine's load-driven control plane.
//
// PR 5 gave the engine live topology operations (AddShards, MoveShard,
// and now MoveSlots); PR 6 gave it a metrics surface that sees per-shard
// load. Nothing connected the two: scaling was an operator decision. The
// autoscaler closes that loop — a controller that samples per-shard
// updates/sec, worker queue depth, and valve pressure from the engine's
// own Metrics() snapshot, scores utilization against configurable
// targets, and issues the reshard operations itself:
//
//   sample ──▶ EWMA-smooth ──▶ score vs watermarks ──▶ decide ──▶ act
//     │                                                  │
//     └── engine.autoscaler.* counters                   └── AddShards /
//         autoscale.decision trace spans                     MoveSlots
//
// Decisions (evaluated in priority order, at most ONE action per cycle):
//
//   * SCALE-OUT: the mean smoothed per-shard rate exceeds the high
//     watermark (or the submit valve has blocked waiters) and the shard
//     count is below max_shards — AddShards(scale_step).
//   * SLOT MOVE: the hottest shard runs more than imbalance_ratio times
//     the mean (and the mean clears the low watermark, so quiet engines
//     are never churned), it owns more than one slot, and slot-heat
//     sampling is on — peel its hottest slots off to the least-loaded
//     HEALTHY shard via MoveSlots. A kDead/kSuspect shard is never
//     selected as a destination.
//
// Anti-flap hysteresis is built in twice over: every per-shard rate is
// EWMA-smoothed (one spiky sample cannot trigger anything), and any
// action arms a shared cooldown window during which further actions are
// suppressed (and counted as suppressions). A flapping load signal
// therefore produces at most one reshard per cooldown window.
//
// Determinism for tests: evaluation_interval_ms == 0 runs NO thread —
// the caller drives the controller with EvaluateOnce(), which makes
// every decision reproducible from the submitted load alone.

#ifndef WBS_ENGINE_AUTOSCALER_H_
#define WBS_ENGINE_AUTOSCALER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"

namespace wbs::engine {

class Client;
class MetricsRegistry;
class Tracer;
class Counter;
class Gauge;

/// Controller targets and pacing. Embedded in IngestorOptions::autoscale;
/// the controller starts with the engine when `enabled` is true.
struct AutoscaleOptions {
  /// Master switch. Off by default: engines that never asked for a
  /// control plane pay nothing (no thread, no instruments).
  bool enabled = false;
  /// Controller thread period. 0 = MANUAL mode: no thread is started and
  /// the owner drives evaluation via Autoscaler::EvaluateOnce() — the
  /// deterministic mode the tests use.
  uint64_t evaluation_interval_ms = 0;
  /// Scale out when the smoothed MEAN per-shard updates/sec exceeds this.
  /// 0 disables rate-triggered scale-out (valve pressure still triggers).
  double high_watermark_updates_per_sec = 0.0;
  /// Rebalance only when the smoothed mean clears this floor — a nearly
  /// idle engine is never churned just because its ratios look skewed.
  double low_watermark_updates_per_sec = 0.0;
  /// Scale out when producers are blocked on the submission valve.
  bool scale_on_valve_pressure = true;
  /// Slot move when hottest-shard rate > imbalance_ratio * mean rate.
  double imbalance_ratio = 2.0;
  /// Shared cooldown armed by ANY action; decisions during it are
  /// suppressed (and counted). The anti-flap window.
  uint64_t cooldown_ms = 1000;
  /// Topology bounds the controller never crosses.
  size_t min_shards = 1;
  size_t max_shards = 64;
  /// EWMA smoothing factor for per-shard rates, in (0, 1]: smoothed =
  /// alpha * sample + (1 - alpha) * smoothed. 1.0 = no smoothing.
  double ewma_alpha = 0.5;
  /// Shards added per scale-out decision.
  size_t scale_step = 1;
  /// At most this many slots peeled per slot-move decision (never all of
  /// a shard's slots — the source always keeps at least one).
  size_t max_slots_per_move = 4;
  /// Cell factory for shards added by scale-out; empty = in-process.
  BackendFactory backend;
};

/// What one evaluation cycle decided. Returned by EvaluateOnce so tests
/// and the soak driver can assert on decisions without parsing spans.
struct AutoscaleDecision {
  enum class Kind : uint8_t {
    kNone = 0,       ///< signals below every threshold
    kCooldown = 1,   ///< an action was due but the cooldown suppressed it
    kScaleOut = 2,   ///< AddShards issued
    kMoveSlots = 3,  ///< MoveSlots issued
  };
  Kind kind = Kind::kNone;
  /// Source / destination shard for kMoveSlots; source == hottest shard.
  size_t source = 0;
  size_t dest = 0;
  /// Slots moved (kMoveSlots) — or shards added (kScaleOut) in size().
  std::vector<uint32_t> slots;
  /// The smoothed mean and max per-shard updates/sec behind the decision.
  double mean_rate = 0.0;
  double max_rate = 0.0;
  /// Status of the issued topology op (OK for kNone/kCooldown).
  Status status = Status::OK();
};

/// The controller. Owned by the Client (constructed at creation when
/// options.autoscale.enabled, stopped in Finish before the router goes
/// down); tests drive it through Client::autoscaler().
class Autoscaler {
 public:
  /// `client` must outlive the controller. Registers the
  /// engine.autoscaler.* instruments in the client's registry.
  Autoscaler(Client* client, AutoscaleOptions options);
  ~Autoscaler();

  Autoscaler(const Autoscaler&) = delete;
  Autoscaler& operator=(const Autoscaler&) = delete;

  /// Starts the controller thread (no-op in manual mode or if running).
  void Start();
  /// Stops and joins the controller thread. Idempotent; safe if never
  /// started. Called by Client::Finish before router teardown.
  void Stop();

  /// One full control cycle: sample → smooth → decide → act. Thread-safe
  /// against the controller thread (they share one mutex), but intended
  /// either-or: manual mode for tests, thread mode for serving.
  AutoscaleDecision EvaluateOnce();

  const AutoscaleOptions& options() const { return options_; }

 private:
  struct ShardSample {
    uint64_t updates_total = 0;  ///< last raw counter reading
    double rate = 0.0;           ///< EWMA-smoothed updates/sec
    bool seen = false;           ///< had a prior sample to diff against
  };

  void ControllerLoop();
  /// The decision body; caller holds mu_.
  AutoscaleDecision DecideLocked();
  /// Picks the healthiest, least-loaded destination != source; returns
  /// num_shards when no healthy destination exists.
  size_t PickDestinationLocked(size_t source, size_t num_shards);

  Client* const client_;
  const AutoscaleOptions options_;

  std::mutex mu_;
  std::vector<ShardSample> samples_;
  /// Previous SlotHeat() reading, for per-slot heat deltas.
  std::vector<uint64_t> prev_heat_;
  /// Monotonic microseconds of the previous evaluation / last action.
  uint64_t last_eval_us_ = 0;
  uint64_t last_action_us_ = 0;
  bool has_acted_ = false;

  /// engine.autoscaler.* instruments (null when metrics are disabled).
  Counter* evaluations_total_ = nullptr;
  Counter* scaleouts_total_ = nullptr;
  Counter* slot_moves_total_ = nullptr;
  Counter* cooldown_suppressed_total_ = nullptr;
  Counter* shards_added_total_ = nullptr;
  Counter* slots_moved_total_ = nullptr;
  Counter* op_failures_total_ = nullptr;
  Gauge* mean_rate_gauge_ = nullptr;
  Gauge* max_rate_gauge_ = nullptr;
  Gauge* max_queue_depth_gauge_ = nullptr;

  std::thread controller_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
};

}  // namespace wbs::engine

#endif  // WBS_ENGINE_AUTOSCALER_H_
