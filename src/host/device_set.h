#ifndef FCAE_HOST_DEVICE_SET_H_
#define FCAE_HOST_DEVICE_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fpga/config.h"
#include "fpga/fault_injector.h"
#include "fpga/pcie_model.h"
#include "host/device_health_monitor.h"
#include "host/fcae_device.h"

namespace fcae {

namespace obs {
class EventNotifier;
class MetricsRegistry;
class TraceRecorder;
}  // namespace obs

namespace host {

/// DeviceSet owns the M simulated cards of a multi-card deployment:
/// one FcaeDevice per card (each with its own job queue and its own
/// one-card DMA timeline), one DeviceHealthMonitor per card (per-card
/// quarantine — one dead card never blacklists its siblings), and
/// optionally one fault injector per card with a per-card seed.
///
/// The cards share no modeled clock: each card's timeline runs on its
/// own busy time, so a DB's jobs charge no cross-card bus wait. Where
/// arrivals are modeled (bench_util.h's RunDeviceFanout, syssim), one
/// fpga::DmaTimeline for the whole set also charges the shared bus.
///
/// Placement lives here so the offload executor, the benches and the
/// tests share one policy: PickCard() returns the healthy card with
/// the fewest queued bytes; when every card is quarantined it lets the
/// breakers decide (each card's Admit() may grant a probe), and only
/// when all of them deny does the caller fall back to the CPU path.
class DeviceSet {
 public:
  DeviceSet(const fpga::EngineConfig& config, int num_cards,
            const fpga::PcieModel& pcie = fpga::PcieModel(),
            const DeviceHealthOptions& health = DeviceHealthOptions());
  ~DeviceSet();

  DeviceSet(const DeviceSet&) = delete;
  DeviceSet& operator=(const DeviceSet&) = delete;

  int num_cards() const { return static_cast<int>(cards_.size()); }
  FcaeDevice* device(int card) { return cards_[card]->device.get(); }
  DeviceHealthMonitor* monitor(int card) {
    return cards_[card]->monitor.get();
  }
  const DeviceHealthMonitor* monitor(int card) const {
    return cards_[card]->monitor.get();
  }

  /// Arms every card with its own deterministic fault stream: card i
  /// draws from `base` with seed base.seed + i, so fault histories
  /// diverge across cards exactly like independent hardware would.
  void InjectFaults(const fpga::DeviceFaultConfig& base);

  /// Arms (or replaces) the injector of one card only.
  void InjectFaults(int card, const fpga::DeviceFaultConfig& config);

  /// Null until InjectFaults armed the card.
  fpga::DeviceFaultInjector* injector(int card) {
    return cards_[card]->injector.get();
  }

  /// Forwards to every card's health monitor (idempotent, borrowed
  /// pointers — same contract as DeviceHealthMonitor).
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::TraceRecorder* trace);
  void AttachNotifier(const obs::EventNotifier* notifier);

  /// Queued-byte bookkeeping for least-loaded placement. Callers add
  /// the job's estimated input bytes when a shard is bound to a card
  /// and subtract the same amount when the job leaves the card.
  void AddQueued(int card, uint64_t bytes) {
    cards_[card]->queued_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  void SubQueued(int card, uint64_t bytes) {
    cards_[card]->queued_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  }
  uint64_t queued_bytes(int card) const {
    return cards_[card]->queued_bytes.load(std::memory_order_relaxed);
  }

  /// Placement policy: the non-quarantined card with the fewest queued
  /// bytes (ties break toward the lowest card id). When every card is
  /// quarantined, offers the job to each breaker in card order as a
  /// potential probe; the first Admit() grant wins. Returns -1 when
  /// every breaker denies — the caller must fall back to CPU.
  int PickCard();

 private:
  struct Card {
    std::unique_ptr<FcaeDevice> device;
    std::unique_ptr<DeviceHealthMonitor> monitor;
    std::unique_ptr<fpga::DeviceFaultInjector> injector;
    std::atomic<uint64_t> queued_bytes{0};
  };

  std::vector<std::unique_ptr<Card>> cards_;
};

}  // namespace host
}  // namespace fcae

#endif  // FCAE_HOST_DEVICE_SET_H_
