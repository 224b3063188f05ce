#include "fpga/dma_timeline.h"

#include <algorithm>

namespace fcae {
namespace fpga {

DmaTimeline::DmaTimeline(int num_cards, bool double_buffered)
    : double_buffered_(double_buffered),
      cards_(static_cast<size_t>(std::max(1, num_cards))) {}

double DmaTimeline::BusWait(int card, double t, double duration,
                            bool inbound) const {
  if (duration <= 0) return 0;
  double others = 0;
  for (const Job& job : jobs_) {
    if (job.card == card || job.end <= t) continue;
    if (inbound) {
      if (job.in_start <= t) others += job.in;
    } else {
      if (job.out_start <= t) others += job.out;
    }
  }
  return std::min(duration, others);
}

DmaSlot DmaTimeline::Schedule(int card, double arrival, double in,
                              double kernel, double out) {
  std::erase_if(jobs_, [arrival](const Job& job) { return job.end < arrival; });
  Card& c = cards_[card];
  if (!double_buffered_) arrival = std::max(arrival, c.out_end);

  DmaSlot slot;
  slot.pipelined = arrival < c.out_end;
  const double in_start =
      std::max({arrival, c.in_end, c.slot_free[c.slot]});
  const double in_wait = BusWait(card, in_start, in, /*inbound=*/true);
  const double in_end = in_start + in + in_wait;
  const double kernel_start = std::max(in_end, c.kernel_end);
  // Transfer-in time hidden behind the previous kernel.
  const double overlap_in =
      std::max(0.0, std::min(in_end, c.kernel_end) - in_start);
  const double kernel_end = kernel_start + kernel;
  const double out_start = std::max(kernel_end, c.out_end);
  const double out_wait = BusWait(card, out_start, out, /*inbound=*/false);
  const double out_end = out_start + out + out_wait;
  // The previous transfer-out hidden behind this kernel.
  const double overlap_out =
      std::max(0.0, std::min(c.out_end, kernel_end) - kernel_start);

  // The staging slot this job used frees for reuse two jobs later, once
  // its bytes have been consumed by the kernel.
  c.slot_free[c.slot] = kernel_end;
  c.slot ^= 1;
  c.in_end = in_end;
  c.kernel_end = kernel_end;
  c.out_end = out_end;
  jobs_.push_back({card, in_start, in, out_start, out, out_end});

  slot.start = in_start;
  slot.end = out_end;
  slot.overlap = overlap_in + overlap_out;
  slot.bus_wait = in_wait + out_wait;
  return slot;
}

}  // namespace fpga
}  // namespace fcae
