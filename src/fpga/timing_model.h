#ifndef FCAE_FPGA_TIMING_MODEL_H_
#define FCAE_FPGA_TIMING_MODEL_H_

#include <cstdint>
#include <string>

#include "fpga/config.h"

namespace fcae {
namespace fpga {

/// Which module bounds the pipeline's steady-state rate.
enum class Bottleneck {
  kDataBlockDecoder,
  kComparer,
  kKeyValueTransfer,
  kDataBlockEncoder,
};

/// The closed-form pipeline model of Tables II and III: per-module
/// periods in cycles per key-value pair, as a function of key length
/// (including the 8-byte mark field), value length, datapath width V and
/// input count N. Cross-checked against the cycle simulator in
/// tests/timing_model_test.cc.
class TimingModel {
 public:
  explicit TimingModel(const EngineConfig& config) : config_(config) {}

  /// Table III, row "Data Block Decoder": L_key + ceil(L_value / V).
  uint64_t DecoderPeriod(uint64_t key_len, uint64_t value_len) const;

  /// Table III, row "Comparer": (2 + ceil(log2 N)) * L_key.
  uint64_t ComparerPeriod(uint64_t key_len, uint64_t value_len) const;

  /// Table III, row "Key-Value Transfer": max(L_key, ceil(L_value/V)).
  uint64_t TransferPeriod(uint64_t key_len, uint64_t value_len) const;

  /// Table III, row "Data Block Encoder": L_key.
  uint64_t EncoderPeriod(uint64_t key_len, uint64_t value_len) const;

  /// The longest per-record period across the pipeline.
  uint64_t BottleneckPeriod(uint64_t key_len, uint64_t value_len) const;

  Bottleneck BottleneckModule(uint64_t key_len, uint64_t value_len) const;

  /// Predicted kernel time for merging `num_records` records.
  double PredictMicros(uint64_t num_records, uint64_t key_len,
                       uint64_t value_len) const;

  /// Predicted compaction speed (input MB/s) for fixed-size records.
  double PredictSpeedMBps(uint64_t key_len, uint64_t value_len) const;

  /// The paper's crossover condition (Section V-D1): the Data Block
  /// Decoder is the bottleneck iff
  ///   L_key < L_value / ((1 + ceil(log2 N)) * V).
  bool DecoderBound(uint64_t key_len, uint64_t value_len) const;

  static const char* BottleneckName(Bottleneck b);

 private:
  EngineConfig config_;
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_TIMING_MODEL_H_
