#include "obs/metrics.h"

#include <cstdarg>
#include <cstdio>
#include <utility>

namespace fcae {
namespace obs {

namespace {

void AppendF(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* format, ...) {
  char buf[128];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  out->append(buf);
}

/// %.17g round-trips doubles exactly while keeping integers short.
void AppendDouble(std::string* out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // JSON has no inf/nan literals; clamp to null (never expected here).
  if (buf[0] == 'i' || buf[0] == 'n' || buf[1] == 'i') {
    out->append("null");
  } else {
    out->append(buf);
  }
}

/// Shared histogram JSON body: {"count": n, "min": x, ...}.
void AppendHistogramJson(std::string* out, const Histogram& h) {
  AppendF(out, "{\"count\": %llu, ",
          static_cast<unsigned long long>(h.Count()));
  const bool empty = h.Count() == 0;
  *out += "\"min\": ";
  AppendDouble(out, empty ? 0 : h.Min());
  *out += ", \"max\": ";
  AppendDouble(out, empty ? 0 : h.Max());
  *out += ", \"mean\": ";
  AppendDouble(out, h.Average());
  *out += ", \"p50\": ";
  AppendDouble(out, empty ? 0 : h.Percentile(50));
  *out += ", \"p90\": ";
  AppendDouble(out, empty ? 0 : h.Percentile(90));
  *out += ", \"p99\": ";
  AppendDouble(out, empty ? 0 : h.Percentile(99));
  *out += "}";
}

/// Prometheus metric name: dotted lowercase -> fcae_ prefix with every
/// non-alphanumeric collapsed to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = "fcae_";
  for (char c : name) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    out += alnum ? c : '_';
  }
  return out;
}

}  // namespace

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot.reset(new Counter());
  }
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot.reset(new Gauge());
  }
  return slot.get();
}

HistogramMetric* MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot.reset(new HistogramMetric());
  }
  return slot.get();
}

std::string MetricsRegistry::ToJson() const {
  // Against an empty snapshot every counter and histogram reports its
  // full value.
  return ToJsonSince(Snapshot());
}

uint64_t MetricsRegistry::Snapshot::CounterValue(
    const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  MutexLock lock(&mutex_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->snapshot();
  }
  return snap;
}

std::string MetricsRegistry::ToJsonSince(const Snapshot& since) const {
  MutexLock lock(&mutex_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    const uint64_t now = counter->value();
    const uint64_t before = since.CounterValue(name);
    AppendF(&out, "%s\n    \"%s\": %llu", first ? "" : ",",
            JsonEscape(name).c_str(),
            static_cast<unsigned long long>(now >= before ? now - before
                                                          : 0));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    AppendF(&out, "%s\n    \"%s\": %lld", first ? "" : ",",
            JsonEscape(name).c_str(),
            static_cast<long long>(gauge->value()));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    Histogram h = histogram->snapshot();
    auto it = since.histograms.find(name);
    if (it != since.histograms.end()) {
      h.Subtract(it->second);
    }
    AppendF(&out, "%s\n    \"%s\": ", first ? "" : ",",
            JsonEscape(name).c_str());
    AppendHistogramJson(&out, h);
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}";
  return out;
}

std::string MetricsRegistry::ExportPrometheus() const {
  MutexLock lock(&mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PrometheusName(name);
    AppendF(&out, "# TYPE %s counter\n", prom.c_str());
    AppendF(&out, "%s %llu\n", prom.c_str(),
            static_cast<unsigned long long>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PrometheusName(name);
    AppendF(&out, "# TYPE %s gauge\n", prom.c_str());
    AppendF(&out, "%s %lld\n", prom.c_str(),
            static_cast<long long>(gauge->value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    Histogram h = histogram->snapshot();
    const std::string prom = PrometheusName(name);
    const bool empty = h.Count() == 0;
    AppendF(&out, "# TYPE %s summary\n", prom.c_str());
    static constexpr std::pair<const char*, double> kQuantiles[] = {
        {"0.5", 50}, {"0.9", 90}, {"0.99", 99}};
    for (const auto& [label, p] : kQuantiles) {
      AppendF(&out, "%s{quantile=\"%s\"} ", prom.c_str(), label);
      AppendDouble(&out, empty ? 0 : h.Percentile(p));
      out += "\n";
    }
    AppendF(&out, "%s_sum ", prom.c_str());
    AppendDouble(&out, h.Average() * static_cast<double>(h.Count()));
    out += "\n";
    AppendF(&out, "%s_count %llu\n", prom.c_str(),
            static_cast<unsigned long long>(h.Count()));
  }
  return out;
}

}  // namespace obs
}  // namespace fcae
