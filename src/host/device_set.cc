#include "host/device_set.h"

#include <algorithm>

namespace fcae {
namespace host {

DeviceSet::DeviceSet(const fpga::EngineConfig& config, int num_cards,
                     const fpga::PcieModel& pcie,
                     const DeviceHealthOptions& health) {
  const int n = std::max(1, num_cards);
  cards_.reserve(n);
  for (int i = 0; i < n; i++) {
    auto card = std::make_unique<Card>();
    card->device = std::make_unique<FcaeDevice>(config, pcie, i);
    card->monitor = std::make_unique<DeviceHealthMonitor>(health, i);
    cards_.push_back(std::move(card));
  }
}

DeviceSet::~DeviceSet() = default;

void DeviceSet::InjectFaults(const fpga::DeviceFaultConfig& base) {
  for (int i = 0; i < num_cards(); i++) {
    fpga::DeviceFaultConfig config = base;
    config.seed = base.seed + static_cast<uint32_t>(i);
    InjectFaults(i, config);
  }
}

void DeviceSet::InjectFaults(int card, const fpga::DeviceFaultConfig& config) {
  cards_[card]->injector =
      std::make_unique<fpga::DeviceFaultInjector>(config);
  cards_[card]->device->set_fault_injector(cards_[card]->injector.get());
}

void DeviceSet::AttachObservability(obs::MetricsRegistry* metrics,
                                    obs::TraceRecorder* trace) {
  for (auto& card : cards_) {
    card->monitor->AttachObservability(metrics, trace);
  }
}

void DeviceSet::AttachNotifier(const obs::EventNotifier* notifier) {
  for (auto& card : cards_) {
    card->monitor->AttachNotifier(notifier);
  }
}

int DeviceSet::PickCard() {
  int best = -1;
  uint64_t best_queued = 0;
  for (int i = 0; i < num_cards(); i++) {
    if (cards_[i]->monitor->quarantined()) continue;
    const uint64_t queued = queued_bytes(i);
    if (best < 0 || queued < best_queued) {
      best = i;
      best_queued = queued;
    }
  }
  if (best >= 0) return best;
  // Every card is quarantined: let each breaker consider the job as a
  // probe. Denials are counted by the breakers themselves.
  for (int i = 0; i < num_cards(); i++) {
    if (cards_[i]->monitor->Admit()) return i;
  }
  return -1;
}

}  // namespace host
}  // namespace fcae
