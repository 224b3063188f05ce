#include "fpga/timing_model.h"

#include <algorithm>

namespace fcae {
namespace fpga {

namespace {

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

uint64_t CeilLog2(uint64_t n) {
  uint64_t result = 0;
  uint64_t v = 1;
  while (v < n) {
    v <<= 1;
    result++;
  }
  return result;
}

}  // namespace

uint64_t TimingModel::DecoderPeriod(uint64_t key_len,
                                    uint64_t value_len) const {
  return key_len + CeilDiv(value_len, config_.EffectiveValueWidth());
}

uint64_t TimingModel::ComparerPeriod(uint64_t key_len,
                                     uint64_t value_len) const {
  uint64_t unit = key_len;
  if (!config_.KeyValueSeparated()) {
    unit += value_len;
  }
  return (2 + CeilLog2(static_cast<uint64_t>(config_.num_inputs))) * unit;
}

uint64_t TimingModel::TransferPeriod(uint64_t key_len,
                                     uint64_t value_len) const {
  if (config_.KeyValueSeparated()) {
    return std::max(key_len,
                    CeilDiv(value_len, config_.EffectiveValueWidth()));
  }
  return key_len + value_len;
}

uint64_t TimingModel::EncoderPeriod(uint64_t key_len,
                                    uint64_t value_len) const {
  if (config_.KeyValueSeparated()) {
    return key_len;
  }
  return key_len + value_len;
}

uint64_t TimingModel::BottleneckPeriod(uint64_t key_len,
                                       uint64_t value_len) const {
  return std::max({DecoderPeriod(key_len, value_len),
                   ComparerPeriod(key_len, value_len),
                   TransferPeriod(key_len, value_len),
                   EncoderPeriod(key_len, value_len)});
}

Bottleneck TimingModel::BottleneckModule(uint64_t key_len,
                                         uint64_t value_len) const {
  const uint64_t period = BottleneckPeriod(key_len, value_len);
  if (period == DecoderPeriod(key_len, value_len)) {
    return Bottleneck::kDataBlockDecoder;
  }
  if (period == ComparerPeriod(key_len, value_len)) {
    return Bottleneck::kComparer;
  }
  if (period == TransferPeriod(key_len, value_len)) {
    return Bottleneck::kKeyValueTransfer;
  }
  return Bottleneck::kDataBlockEncoder;
}

double TimingModel::PredictMicros(uint64_t num_records, uint64_t key_len,
                                  uint64_t value_len) const {
  return config_.CyclesToMicros(num_records *
                                BottleneckPeriod(key_len, value_len));
}

double TimingModel::PredictSpeedMBps(uint64_t key_len,
                                     uint64_t value_len) const {
  // Bytes of input consumed per record vs. cycles per record.
  const double bytes_per_record = static_cast<double>(key_len + value_len);
  const double cycles = static_cast<double>(
      BottleneckPeriod(key_len, value_len));
  const double bytes_per_second =
      bytes_per_record / cycles * config_.clock_mhz * 1e6;
  return bytes_per_second / (1024.0 * 1024.0);
}

bool TimingModel::DecoderBound(uint64_t key_len, uint64_t value_len) const {
  // Section V-D1: L_key + L_value/V > (2 + ceil(log2 N)) * L_key
  //           <=> L_key < L_value / ((1 + ceil(log2 N)) * V).
  return DecoderPeriod(key_len, value_len) >
         ComparerPeriod(key_len, value_len);
}

const char* TimingModel::BottleneckName(Bottleneck b) {
  switch (b) {
    case Bottleneck::kDataBlockDecoder:
      return "DataBlockDecoder";
    case Bottleneck::kComparer:
      return "Comparer";
    case Bottleneck::kKeyValueTransfer:
      return "KeyValueTransfer";
    case Bottleneck::kDataBlockEncoder:
      return "DataBlockEncoder";
  }
  return "unknown";
}

}  // namespace fpga
}  // namespace fcae
