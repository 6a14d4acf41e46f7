#include "sim/trace/sampler.hpp"

#include <string>

#include "sim/check.hpp"

namespace netddt::sim {

TelemetrySampler::TelemetrySampler(Engine& engine, MetricsRegistry& metrics,
                                   Time period)
    : engine_(&engine), metrics_(&metrics), period_(period) {
  NETDDT_CHECK(period_ > 0, "telemetry sampling period " +
                                std::to_string(period_) +
                                " ps must be positive");
}

void TelemetrySampler::set_tracer(trace::Tracer* tracer) {
  NETDDT_CHECK(!started_, "set_tracer() after the sampler started");
  tracer_ = tracer != nullptr && tracer->events_on() ? tracer : nullptr;
  for (Probe& p : probes_) {
    if (tracer_ != nullptr) {
      p.track = tracer_->track("telemetry");
      p.track_name = tracer_->intern(p.name);
    } else {
      p.track = 0;
      p.track_name = nullptr;
    }
  }
}

void TelemetrySampler::probe(const std::string& name,
                             std::function<double()> read) {
  NETDDT_CHECK(!started_,
               "probe '" + name + "' registered after the sampler started");
  Probe p;
  p.name = name;
  p.read = std::move(read);
  p.series = &metrics_->series("telemetry." + name);
  if (tracer_ != nullptr) {
    p.track = tracer_->track("telemetry");
    p.track_name = tracer_->intern(name);
  }
  probes_.push_back(std::move(p));
}

void TelemetrySampler::start() {
  NETDDT_CHECK(!started_, "sampler started twice");
  started_ = true;
  tick();
}

void TelemetrySampler::tick() {
  if (stopped_) return;
  const Time now = engine_->now();
  for (Probe& p : probes_) {
    const double value = p.read();
    p.series->record(now, value);
    // The Series keeps every sample (JSON tables need the raw shape);
    // the counter track only needs changes.
    if (tracer_ != nullptr &&
        (!p.emitted_any || value != p.last_emitted)) {
      tracer_->counter(p.track, p.track_name, now, value);
      p.last_emitted = value;
      p.emitted_any = true;
    }
  }
  samples_ += 1;
  engine_->schedule(period_, [this] { tick(); });
}

}  // namespace netddt::sim
