#include "obs/trace.h"

#include <chrono>
#include <cstdio>

#include "obs/metrics.h"

namespace fcae {
namespace obs {

uint64_t TraceNowMicros() {
  // Trace timestamps are display-only (relative event ordering in dump
  // output); they never feed the crash model or fake-clock tests, so a
  // direct steady_clock read is acceptable here.
  // fcae-check: allow(raw-io): display-only trace timestamps
  auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(since_epoch)
          .count());
}

TraceRecorder::TraceRecorder(size_t capacity, Counter* dropped)
    : capacity_(capacity == 0 ? 1 : capacity), dropped_(dropped) {}

void TraceRecorder::set_sink(TraceSink* sink) {
  MutexLock lock(&mutex_);
  sink_ = sink;
}

void TraceRecorder::Record(TraceEvent event) {
  TraceSink* sink;
  {
    MutexLock lock(&mutex_);
    sink = sink_;
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[next_] = event;
      next_ = (next_ + 1) % capacity_;
      dropped_->Increment();
    }
  }
  // Sink runs outside the lock so a slow sink (file write) never
  // stalls other recording threads, and so sinks may call back in.
  if (sink != nullptr) {
    sink->Append(event);
  }
}

void TraceRecorder::RecordSpan(
    std::string name, std::string cat, uint64_t ts_micros,
    uint64_t dur_micros, uint64_t tid,
    std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent event;
  event.name = std::move(name);
  event.cat = std::move(cat);
  event.phase = 'X';
  event.ts_micros = ts_micros;
  event.dur_micros = dur_micros;
  event.tid = tid;
  event.args = std::move(args);
  Record(std::move(event));
}

void TraceRecorder::RecordInstant(
    std::string name, std::string cat, uint64_t ts_micros, uint64_t tid,
    std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent event;
  event.name = std::move(name);
  event.cat = std::move(cat);
  event.phase = 'i';
  event.ts_micros = ts_micros;
  event.tid = tid;
  event.args = std::move(args);
  Record(std::move(event));
}

std::string TraceRecorder::ToJson() const {
  std::vector<TraceEvent> events;
  {
    MutexLock lock(&mutex_);
    events.reserve(ring_.size());
    // Oldest retained first: once the ring wrapped, next_ points at
    // the oldest slot.
    for (size_t i = 0; i < ring_.size(); i++) {
      events.push_back(ring_[(next_ + i) % ring_.size()]);
    }
  }

  std::string out = "{\"traceEvents\": [";
  char buf[128];
  for (size_t i = 0; i < events.size(); i++) {
    const TraceEvent& e = events[i];
    out += (i == 0) ? "\n" : ",\n";
    out += "  {\"name\": \"" + JsonEscape(e.name) + "\", \"cat\": \"" +
           JsonEscape(e.cat) + "\", \"ph\": \"";
    out += e.phase;
    std::snprintf(buf, sizeof(buf),
                  "\", \"ts\": %llu, \"pid\": 1, \"tid\": %llu",
                  static_cast<unsigned long long>(e.ts_micros),
                  static_cast<unsigned long long>(e.tid));
    out += buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ", \"dur\": %llu",
                    static_cast<unsigned long long>(e.dur_micros));
      out += buf;
    } else if (e.phase == 'i') {
      out += ", \"s\": \"t\"";  // instant scoped to its thread track
    }
    if (!e.args.empty()) {
      out += ", \"args\": {";
      for (size_t a = 0; a < e.args.size(); a++) {
        if (a > 0) out += ", ";
        out += '"';
        out += JsonEscape(e.args[a].first);
        out += "\": ";
        out += e.args[a].second;
      }
      out += "}";
    }
    out += "}";
  }
  out += events.empty() ? "]" : "\n]";
  std::snprintf(buf, sizeof(buf),
                ", \"displayTimeUnit\": \"ms\", \"eventsDropped\": %llu}",
                static_cast<unsigned long long>(dropped_->value()));
  out += buf;
  return out;
}

size_t TraceRecorder::size() const {
  MutexLock lock(&mutex_);
  return ring_.size();
}

std::string TraceRecorder::Quote(const std::string& value) {
  std::string out = "\"";
  out += JsonEscape(value);
  out += '"';
  return out;
}

SpanTimer::SpanTimer(TraceRecorder* recorder, std::string name,
                     std::string cat, uint64_t tid)
    : recorder_(recorder),
      name_(std::move(name)),
      cat_(std::move(cat)),
      tid_(tid),
      start_micros_(recorder == nullptr ? 0 : TraceNowMicros()) {}

SpanTimer::~SpanTimer() { Finish(); }

void SpanTimer::AddArg(std::string key, std::string raw_json_value) {
  args_.emplace_back(std::move(key), std::move(raw_json_value));
}

void SpanTimer::Finish() {
  if (finished_ || recorder_ == nullptr) {
    finished_ = true;
    return;
  }
  finished_ = true;
  uint64_t end = TraceNowMicros();
  recorder_->RecordSpan(std::move(name_), std::move(cat_), start_micros_,
                        end - start_micros_, tid_, std::move(args_));
}

}  // namespace obs
}  // namespace fcae
