// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "engine/metrics.h"

#include <algorithm>
#include <ostream>

namespace wbs::engine {

namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void AppendU64(uint64_t v, std::string* out) { *out += std::to_string(v); }

}  // namespace

uint64_t MetricSample::ApproxQuantile(double q) const {
  if (kind != MetricKind::kHistogram || count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // The snapshot's bucket counts may sum to slightly more than `count` if
  // increments raced the read; rank against the bucket total so the walk
  // always terminates inside the array.
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  const uint64_t rank = uint64_t(q * double(total - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return Histogram::BucketUpperBound(i);
  }
  return Histogram::BucketUpperBound(buckets.size() - 1);
}

MetricSample CounterSample(std::string name, const Counter& c) {
  MetricSample s;
  s.name = std::move(name);
  s.kind = MetricKind::kCounter;
  s.value = c.Value();
  return s;
}

MetricSample GaugeSample(std::string name, int64_t value) {
  MetricSample s;
  s.name = std::move(name);
  s.kind = MetricKind::kGauge;
  s.value = uint64_t(value);
  return s;
}

MetricSample GaugeSample(std::string name, const Gauge& g) {
  return GaugeSample(std::move(name), g.Value());
}

MetricSample HistogramSample(std::string name, const Histogram& h) {
  MetricSample s;
  s.name = std::move(name);
  s.kind = MetricKind::kHistogram;
  s.count = h.Count();
  s.sum = h.Sum();
  s.buckets.resize(Histogram::kBuckets);
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    s.buckets[i] = h.BucketCount(i);
  }
  return s;
}

const MetricSample* MetricsSnapshot::Find(const std::string& name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::Value(const std::string& name,
                                uint64_t fallback) const {
  const MetricSample* s = Find(name);
  return s == nullptr ? fallback : s->value;
}

void AppendSampleJson(const MetricSample& sample, std::string* out) {
  *out += "{\"metric\":\"";
  *out += sample.name;  // names are engine-chosen dotted identifiers
  *out += "\",\"type\":\"";
  *out += KindName(sample.kind);
  *out += "\"";
  switch (sample.kind) {
    case MetricKind::kCounter:
      *out += ",\"value\":";
      AppendU64(sample.value, out);
      break;
    case MetricKind::kGauge:
      *out += ",\"value\":";
      *out += std::to_string(sample.gauge_value());
      break;
    case MetricKind::kHistogram: {
      *out += ",\"count\":";
      AppendU64(sample.count, out);
      *out += ",\"sum\":";
      AppendU64(sample.sum, out);
      *out += ",\"p50\":";
      AppendU64(sample.ApproxQuantile(0.50), out);
      *out += ",\"p99\":";
      AppendU64(sample.ApproxQuantile(0.99), out);
      *out += ",\"buckets\":[";
      // Trailing empty buckets are elided (the decoder treats a short
      // array as zero-padded), which keeps idle histograms to a few bytes.
      size_t last = sample.buckets.size();
      while (last > 0 && sample.buckets[last - 1] == 0) --last;
      for (size_t i = 0; i < last; ++i) {
        if (i > 0) *out += ",";
        AppendU64(sample.buckets[i], out);
      }
      *out += "]";
      break;
    }
  }
  *out += "}";
}

void MetricsSnapshot::WriteJsonl(std::ostream& os) const {
  std::string line;
  {
    MetricSample uptime;
    uptime.name = "engine.uptime_us";
    uptime.kind = MetricKind::kGauge;
    uptime.value = uptime_us;
    // Guard against a caller that already put uptime in samples.
    if (Find(uptime.name) == nullptr) {
      AppendSampleJson(uptime, &line);
      os << line << "\n";
    }
  }
  for (const MetricSample& s : samples) {
    line.clear();
    AppendSampleJson(s, &line);
    os << line << "\n";
  }
}

void MetricsSnapshot::WriteTable(std::ostream& os) const {
  size_t width = 24;
  for (const MetricSample& s : samples) {
    width = std::max(width, s.name.size() + 2);
  }
  for (const MetricSample& s : samples) {
    os << s.name;
    for (size_t pad = s.name.size(); pad < width; ++pad) os << ' ';
    switch (s.kind) {
      case MetricKind::kCounter:
        os << s.value;
        break;
      case MetricKind::kGauge:
        os << s.gauge_value();
        break;
      case MetricKind::kHistogram:
        os << "count=" << s.count << " sum=" << s.sum
           << " avg=" << (s.count == 0 ? 0 : s.sum / s.count)
           << " p50<=" << s.ApproxQuantile(0.50)
           << " p99<=" << s.ApproxQuantile(0.99);
        break;
    }
    os << "\n";
  }
}

Counter* MetricsRegistry::NewCounter(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.emplace_back();  // instruments hold atomics: construct in place
  Named<Counter>& n = counters_.back();
  n.name = std::move(name);
  order_.push_back(Slot{MetricKind::kCounter, &n.instrument, &n.name});
  return &n.instrument;
}

Gauge* MetricsRegistry::NewGauge(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_.emplace_back();
  Named<Gauge>& n = gauges_.back();
  n.name = std::move(name);
  order_.push_back(Slot{MetricKind::kGauge, &n.instrument, &n.name});
  return &n.instrument;
}

Histogram* MetricsRegistry::NewHistogram(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_.emplace_back();
  Named<Histogram>& n = histograms_.back();
  n.name = std::move(name);
  order_.push_back(Slot{MetricKind::kHistogram, &n.instrument, &n.name});
  return &n.instrument;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(order_.size());
  for (const Slot& slot : order_) {
    switch (slot.kind) {
      case MetricKind::kCounter:
        out.push_back(CounterSample(
            *slot.name, *static_cast<const Counter*>(slot.instrument)));
        break;
      case MetricKind::kGauge:
        out.push_back(GaugeSample(
            *slot.name, *static_cast<const Gauge*>(slot.instrument)));
        break;
      case MetricKind::kHistogram:
        out.push_back(HistogramSample(
            *slot.name, *static_cast<const Histogram*>(slot.instrument)));
        break;
    }
  }
  return out;
}

EngineMetrics::EngineMetrics() {
  router_.dispatches_total =
      registry_.NewCounter("engine.router.dispatches_total");
  router_.rescatters_total =
      registry_.NewCounter("engine.router.rescatters_total");
  router_.parked_rounds_total =
      registry_.NewCounter("engine.router.parked_rounds_total");
  router_.barriers_total = registry_.NewCounter("engine.router.barriers_total");
  router_.barrier_us = registry_.NewHistogram("engine.router.barrier_us");
}

ShardIngestMetrics* EngineMetrics::shard(size_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  while (shards_.size() <= id) {
    const std::string p = "engine.shard." + std::to_string(shards_.size());
    ShardIngestMetrics m;
    m.updates_total = registry_.NewCounter(p + ".updates_total");
    m.batches_total = registry_.NewCounter(p + ".batches_total");
    m.apply_us = registry_.NewHistogram(p + ".apply_us");
    m.batch_size = registry_.NewHistogram(p + ".batch_size");
    shards_.push_back(m);
  }
  return &shards_[id];
}

SessionMetrics* EngineMetrics::session(size_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  while (sessions_.size() <= id) {
    const std::string p = "engine.session." + std::to_string(sessions_.size());
    SessionMetrics m;
    m.submits_total = registry_.NewCounter(p + ".submits_total");
    m.try_rejections_total =
        registry_.NewCounter(p + ".try_rejections_total");
    m.valve_waits_total = registry_.NewCounter(p + ".valve_waits_total");
    m.valve_wait_us = registry_.NewHistogram(p + ".valve_wait_us");
    m.valve_applies_total = registry_.NewCounter(p + ".valve_applies_total");
    m.tickets_outstanding = registry_.NewGauge(p + ".tickets_outstanding");
    sessions_.push_back(m);
  }
  return &sessions_[id];
}

WorkerMetrics* EngineMetrics::worker(size_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() <= id) {
    const std::string p = "engine.worker." + std::to_string(workers_.size());
    WorkerMetrics m;
    m.queue_depth = registry_.NewGauge(p + ".queue_depth");
    workers_.push_back(m);
  }
  return &workers_[id];
}

size_t EngineMetrics::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

}  // namespace wbs::engine
