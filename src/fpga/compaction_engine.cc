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

  std::vector<std::unique_ptr<InputDecoder>> decoders;
  std::unique_ptr<Comparer> comparer;
  std::unique_ptr<KeyValueTransfer> transfer;
  std::unique_ptr<OutputEncoder> encoder;
};

namespace {

/// One module on its own clock: it has run every cycle through `at`, and
/// its next Tick() that can move a FIFO entry falls on cycle `next`
/// (kQuietForever while it waits for a neighbour to move one).
template <typename Module>
struct Stepper {
  Module* module = nullptr;
  uint64_t at = 0;
  uint64_t next = 0;

  /// Applies the module's quiet cycles through `cycle`.
  void CatchUp(uint64_t cycle) {
    if (cycle > at) {
      module->SkipQuiet(cycle - at);
      at = cycle;
    }
  }

  /// Catches up through `cycle` and recomputes `next`, after a neighbour
  /// moved an entry of a FIFO the two share.
  void Wake(uint64_t cycle) {
    CatchUp(cycle);
    const uint64_t quiet = module->QuietCycles();
    next = quiet == kQuietForever ? kQuietForever : at + quiet + 1;
  }

  /// Runs cycle `cycle`.
  void Tick(uint64_t cycle) {
    CatchUp(cycle - 1);
    module->Tick();
    at = cycle;
    Wake(cycle);
  }
};

}  // namespace

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

  // Each module runs on its own clock (Stepper). On a cycle where some
  // module is due, the due ones tick in the order encoder, transfer,
  // comparer, decoders, downstream to upstream so that freed space
  // propagates next cycle, as when every module ticked on every cycle.
  // A module's other cycles only count down timers or count stalls, and
  // SkipQuiet() applies them in one step when it next matters. A tick
  // that may move an entry of a shared FIFO wakes the module on its
  // other end: a module earlier in the order is brought through this
  // cycle (it has had its turn), a later one up to it (its turn, which
  // must see the change, is still to come), and its next event is
  // recomputed. The pairs are encoder-transfer, transfer-comparer, and
  // the transfer and the comparer each with the decoder whose FIFO they
  // pop. Every SkipQuiet() reads only its own module's state except the
  // comparer's, whose WaitingForLane() reads the decoders, so the
  // comparer is brought through this cycle before any decoder ticks
  // (DESIGN.md §4 item 1).
  Stepper<OutputEncoder> encoder{p.encoder.get()};
  Stepper<KeyValueTransfer> transfer{p.transfer.get()};
  Stepper<Comparer> comparer{p.comparer.get()};
  std::vector<Stepper<InputDecoder>> decoders;
  for (auto& d : p.decoders) decoders.push_back({d.get()});
  encoder.Wake(0);
  transfer.Wake(0);
  comparer.Wake(0);
  for (auto& d : decoders) d.Wake(0);

  // The input whose records_for_transfer() the transfer pops next.
  auto transfer_lane = [&p]() -> int {
    const Fifo<Selection>& selections = p.comparer->selections();
    return selections.CanPop() ? selections.Front().input_no : -1;
  };

  bool upstream_done_notified = false;
  for (;;) {
    uint64_t cycle = std::min({encoder.next, transfer.next, comparer.next});
    for (const auto& d : decoders) cycle = std::min(cycle, d.next);
    if (stats_.cycles == 0 && p.transfer->Done()) {
      // Upstream was done before the first cycle (no input has a table).
      // The encoder cannot foresee the notification, so the cycle that
      // delivers it runs.
      cycle = 1;
    }

    // The run ends on the cycle the encoder turns done. It finalizes only
    // after the upstream-done notification, and from then on its quiet
    // cycles stop there.
    if (upstream_done_notified) {
      encoder.CatchUp(cycle - 1);
      if (p.encoder->Done() && cycle - 1 <= kCycleBound) {
        stats_.cycles = cycle - 1;
        break;
      }
    }
    if (cycle > kCycleBound) {
      return Status::Corruption("engine wedged: cycle bound exceeded");
    }

    if (encoder.next == cycle) {
      encoder.Tick(cycle);
      transfer.Wake(cycle - 1);
    }
    if (transfer.next == cycle) {
      const int lane = transfer_lane();
      transfer.Tick(cycle);
      encoder.Wake(cycle);
      comparer.Wake(cycle - 1);
      if (lane >= 0) decoders[lane].Wake(cycle - 1);
    }
    if (comparer.next == cycle) {
      comparer.Tick(cycle);
      transfer.Wake(cycle);
      decoders[p.comparer->last_selected()].Wake(cycle - 1);
    }
    for (size_t i = 0; i < decoders.size(); i++) {
      if (decoders[i].next != cycle) continue;
      comparer.CatchUp(cycle);
      decoders[i].Tick(cycle);
      if (!p.decoders[i]->status().ok()) {
        return p.decoders[i]->status();
      }
      comparer.Wake(cycle);
      if (transfer_lane() == static_cast<int>(i)) transfer.Wake(cycle);
    }
    stats_.cycles = cycle;

    if (!upstream_done_notified && p.transfer->Done()) {
      encoder.CatchUp(cycle);
      p.encoder->NotifyUpstreamDone();
      encoder.Wake(cycle);
      upstream_done_notified = true;
    }
  }

  // The upstream modules are idle from the notification on, so their
  // counters are complete without a final catch-up.
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
