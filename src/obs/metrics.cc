#include "obs/metrics.h"

#include <algorithm>
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

/// `<layer>.card<n>.<measure>`: the exported name of a card instrument.
std::string CardName(const char* layer, int n, const char* measure) {
  std::string name = layer;
  name += ".card";
  name += std::to_string(n);
  name += '.';
  name += measure;
  return name;
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

CardInstruments* MetricsRegistry::card(int n) {
  MutexLock lock(&mutex_);
  std::unique_ptr<CardInstruments>& block = cards_[n];
  if (block == nullptr) block = std::make_unique<CardInstruments>();
  return block.get();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
#define FCAE_COUNTER(member, name) snap.member = member.value();
#define FCAE_GAUGE(member, name) snap.member = member.value();
#define FCAE_HISTOGRAM(member, name) snap.member = member.snapshot();
#include "obs/instruments.def"
  MutexLock lock(&mutex_);
  for (const auto& [n, block] : cards_) {
    Snapshot::CardCounters& counters = snap.cards[n];
#define FCAE_CARD_COUNTER(member, layer) \
  counters.member = block->member.value();
#include "obs/instruments.def"
  }
  return snap;
}

MetricsRegistry::Rows MetricsRegistry::Collect(const Snapshot& since) const {
  Rows rows;
  const auto counter_row = [&](std::string name, const Counter& c,
                               uint64_t before) {
    const uint64_t now = c.value();
    rows.counters.emplace_back(std::move(name),
                               now >= before ? now - before : 0);
  };
  const auto gauge_row = [&](std::string name, const Gauge& g) {
    rows.gauges.emplace_back(std::move(name), g.value());
  };
  const auto histogram_row = [&](std::string name,
                                 const HistogramMetric& h,
                                 const Histogram& before) {
    Histogram window = h.snapshot();
    if (before.Count() > 0) window.Subtract(before);
    rows.histograms.emplace_back(std::move(name), std::move(window));
  };
#define FCAE_COUNTER(member, name) counter_row(name, member, since.member);
#define FCAE_GAUGE(member, name) gauge_row(name, member);
#define FCAE_HISTOGRAM(member, name) \
  histogram_row(name, member, since.member);
#include "obs/instruments.def"
  {
    MutexLock lock(&mutex_);
    for (const auto& [n, block] : cards_) {
      auto it = since.cards.find(n);
      const Snapshot::CardCounters before =
          it != since.cards.end() ? it->second : Snapshot::CardCounters();
#define FCAE_CARD_COUNTER(member, layer) \
  counter_row(CardName(layer, n, #member), block->member, before.member);
#define FCAE_CARD_GAUGE(member, layer) \
  gauge_row(CardName(layer, n, #member), block->member);
#include "obs/instruments.def"
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(rows.counters.begin(), rows.counters.end(), by_name);
  std::sort(rows.gauges.begin(), rows.gauges.end(), by_name);
  std::sort(rows.histograms.begin(), rows.histograms.end(), by_name);
  return rows;
}

std::string MetricsRegistry::ToJson() const {
  // Against an empty snapshot every counter and histogram reports its
  // full value.
  return ToJsonSince(Snapshot());
}

std::string MetricsRegistry::ToJsonSince(const Snapshot& since) const {
  const Rows rows = Collect(since);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : rows.counters) {
    AppendF(&out, "%s\n    \"%s\": %llu", first ? "" : ",",
            JsonEscape(name).c_str(), static_cast<unsigned long long>(value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : rows.gauges) {
    AppendF(&out, "%s\n    \"%s\": %lld", first ? "" : ",",
            JsonEscape(name).c_str(), static_cast<long long>(value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : rows.histograms) {
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
  const Rows rows = Collect(Snapshot());
  std::string out;
  for (const auto& [name, value] : rows.counters) {
    const std::string prom = PrometheusName(name);
    AppendF(&out, "# TYPE %s counter\n", prom.c_str());
    AppendF(&out, "%s %llu\n", prom.c_str(),
            static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : rows.gauges) {
    const std::string prom = PrometheusName(name);
    AppendF(&out, "# TYPE %s gauge\n", prom.c_str());
    AppendF(&out, "%s %lld\n", prom.c_str(), static_cast<long long>(value));
  }
  for (const auto& [name, h] : rows.histograms) {
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
    AppendDouble(&out, h.Sum());
    out += "\n";
    AppendF(&out, "%s_count %llu\n", prom.c_str(),
            static_cast<unsigned long long>(h.Count()));
  }
  return out;
}

}  // namespace obs
}  // namespace fcae
