#include "fpga/compaction_engine.h"

#include <algorithm>

#include "fpga/comparer.h"
#include "fpga/decoder.h"
#include "fpga/encoder.h"
#include "fpga/kv_transfer.h"

namespace fcae {
namespace fpga {

/// Owns the module graph.
struct CompactionEngine::Pipeline {
  Pipeline(const EngineConfig& config,
           const std::vector<const DeviceInput*>& inputs,
           uint64_t smallest_snapshot, bool drop_deletions,
           DeviceOutput* output, const KeyBounds* bounds) {
    for (size_t i = 0; i < inputs.size(); i++) {
      decoders.push_back(std::make_unique<InputDecoder>(
          config, inputs[i], static_cast<int>(i)));
    }
    std::vector<InputDecoder*> decoder_ptrs;
    for (auto& d : decoders) decoder_ptrs.push_back(d.get());

    comparer = std::make_unique<Comparer>(config, decoder_ptrs,
                                          smallest_snapshot, drop_deletions);
    transfer = std::make_unique<KeyValueTransfer>(config, comparer.get(),
                                                  decoder_ptrs, bounds);
    encoder =
        std::make_unique<OutputEncoder>(config, transfer.get(), output);
  }

  /// Advances every module one cycle, downstream to upstream so freed
  /// space propagates next cycle.
  void Tick() {
    encoder->Tick();
    transfer->Tick();
    comparer->Tick();
    for (auto& decoder : decoders) decoder->Tick();
  }

  /// Cycles in which no module moves a FIFO entry: each module's quiet
  /// count assumes the others stay put, so the smallest one holds for
  /// the whole pipeline.
  uint64_t QuietCycles() const {
    uint64_t n = encoder->QuietCycles();
    if (n > 0) n = std::min(n, transfer->QuietCycles());
    if (n > 0) n = std::min(n, comparer->QuietCycles());
    for (const auto& decoder : decoders) {
      if (n == 0) break;
      n = std::min(n, decoder->QuietCycles());
    }
    return n;
  }

  void SkipQuiet(uint64_t n) {
    encoder->SkipQuiet(n);
    transfer->SkipQuiet(n);
    comparer->SkipQuiet(n);
    for (auto& decoder : decoders) decoder->SkipQuiet(n);
  }

  std::vector<std::unique_ptr<InputDecoder>> decoders;
  std::unique_ptr<Comparer> comparer;
  std::unique_ptr<KeyValueTransfer> transfer;
  std::unique_ptr<OutputEncoder> encoder;
};

CompactionEngine::CompactionEngine(const EngineConfig& config,
                                   std::vector<const DeviceInput*> inputs,
                                   uint64_t smallest_snapshot,
                                   bool drop_deletions, DeviceOutput* output,
                                   const KeyBounds* bounds)
    : config_(config),
      inputs_(std::move(inputs)),
      smallest_snapshot_(smallest_snapshot),
      drop_deletions_(drop_deletions),
      output_(output),
      bounds_(bounds) {
  assert(static_cast<int>(inputs_.size()) <= config_.num_inputs);
  pipeline_ = std::make_unique<Pipeline>(config_, inputs_, smallest_snapshot_,
                                         drop_deletions_, output_, bounds_);
}

CompactionEngine::~CompactionEngine() = default;

Status CompactionEngine::Run() {
  Pipeline& p = *pipeline_;

  for (const DeviceInput* input : inputs_) {
    stats_.input_bytes += input->TotalBytes();
  }

  // Hard bound: even a fully serialized pipeline processes at least one
  // byte every few cycles; anything beyond this is a wiring bug.
  const uint64_t kCycleBound =
      1000000 + 400ull * (stats_.input_bytes + 1024) *
                    static_cast<uint64_t>(config_.num_inputs);

  bool upstream_done_notified = false;
  while (!p.encoder->Done()) {
    // Jump over quiet cycles, in which every module would only count
    // down a timer or count a stall, and tick otherwise. The encoder
    // cannot foresee a pending upstream-done notification, so nothing
    // is skipped until it has been delivered.
    uint64_t quiet = 0;
    if (upstream_done_notified || !p.transfer->Done()) {
      quiet = std::min(p.QuietCycles(), kCycleBound + 1 - stats_.cycles);
    }
    if (quiet > 0) {
      p.SkipQuiet(quiet);
      stats_.cycles += quiet;
    } else {
      p.Tick();
      stats_.cycles++;
    }

    if (!upstream_done_notified && p.transfer->Done()) {
      p.encoder->NotifyUpstreamDone();
      upstream_done_notified = true;
    }

    for (auto& decoder : p.decoders) {
      if (!decoder->status().ok()) {
        return decoder->status();
      }
    }
    if (stats_.cycles > kCycleBound) {
      return Status::Corruption("engine wedged: cycle bound exceeded");
    }
  }

  for (auto& decoder : p.decoders) {
    stats_.records_in += decoder->records_decoded();
    stats_.decoder_fetch_stalls += decoder->fetch_stall_cycles();
    stats_.decoder_backpressure += decoder->backpressure_cycles();
    stats_.decoder_busy += decoder->busy_cycles();
    stats_.fifo_key_stream_peak =
        std::max<uint64_t>(stats_.fifo_key_stream_peak,
                           decoder->key_stream().HighWater());
    stats_.fifo_transfer_peak =
        std::max<uint64_t>(stats_.fifo_transfer_peak,
                           decoder->records_for_transfer().HighWater());
  }
  stats_.records_out = p.transfer->transferred();
  stats_.records_dropped = p.transfer->dropped();
  stats_.records_bounds_dropped = p.transfer->bounds_dropped();
  stats_.comparer_waits = p.comparer->wait_cycles();
  stats_.encoder_write_stalls = p.encoder->write_stall_cycles();
  stats_.comparer_busy = p.comparer->busy_cycles();
  stats_.transfer_busy = p.transfer->busy_cycles();
  stats_.encoder_busy = p.encoder->busy_cycles();
  stats_.fifo_selection_peak = p.comparer->selections().HighWater();
  stats_.fifo_output_peak = p.transfer->output().HighWater();
  stats_.fifo_write_queue_peak = p.encoder->write_queue_high_water();
  for (const DeviceOutputTable& t : output_->tables) {
    stats_.output_bytes += t.data_memory.size();
  }
  return Status::OK();
}

BottleneckReport AttributeBottleneck(const EngineStats& stats,
                                     int num_lanes) {
  BottleneckReport report;
  if (stats.cycles == 0) return report;
  const double lanes = num_lanes > 0 ? num_lanes : 1;
  report.decoder_share =
      stats.Utilization(stats.decoder_busy) / lanes;
  report.comparer_share = stats.Utilization(stats.comparer_busy);
  report.transfer_share = stats.Utilization(stats.transfer_busy);
  report.encoder_share = stats.Utilization(stats.encoder_busy);

  report.module = "decoder";
  report.share = report.decoder_share;
  if (report.comparer_share > report.share) {
    report.module = "comparer";
    report.share = report.comparer_share;
  }
  if (report.transfer_share > report.share) {
    report.module = "transfer";
    report.share = report.transfer_share;
  }
  if (report.encoder_share > report.share) {
    report.module = "encoder";
    report.share = report.encoder_share;
  }
  return report;
}

}  // namespace fpga
}  // namespace fcae
