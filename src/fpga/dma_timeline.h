#ifndef FCAE_FPGA_DMA_TIMELINE_H_
#define FCAE_FPGA_DMA_TIMELINE_H_

#include <vector>

namespace fcae {
namespace fpga {

/// Where one job landed on its card's modeled timeline.
struct DmaSlot {
  double start = 0;  // Transfer-in starts.
  double end = 0;    // Transfer-out ends: the job leaves the card.
  /// DMA hidden behind compute: this job's transfer-in behind the
  /// previous kernel, plus the previous transfer-out behind this kernel.
  double overlap = 0;
  double bus_wait = 0;  // Both bursts' waits for the shared bus.
  /// The job arrived before its card's previous job left.
  bool pipelined = false;
};

/// DmaTimeline is the one model of the transfer-in -> kernel ->
/// transfer-out chain (the paper's Table VIII) for a set of cards, in
/// modeled time: a value type with no lock and no clock. Times are in
/// whatever unit the caller uses, as long as it uses one.
///
/// Per card, two staging slots double-buffer the DMA: a job's
/// transfer-in starts at max(arrival, the DMA-in engine frees, its slot
/// frees), its slot frees when its kernel ends, the kernel starts once
/// the transfer-in and the previous kernel are done, and the
/// transfer-out once the kernel and the previous transfer-out are done.
///
/// The cards share one bus, with independent in and out lanes. A burst
/// that starts at t waits min(its own time, the same-direction time of
/// other cards' bursts that started by t within jobs still running at
/// t): a fair arbiter at worst halves a card's share.
///
/// Arrivals must never decrease, so Schedule drops the jobs that ended
/// before the newest arrival; no later burst can meet them.
class DmaTimeline {
 public:
  /// `double_buffered` = false holds each job's transfer-in until its
  /// card's previous job left: the serial chain, with nothing hidden.
  /// Schedule still prunes by the arrival it was given.
  explicit DmaTimeline(int num_cards, bool double_buffered = true);

  DmaSlot Schedule(int card, double arrival, double in, double kernel,
                   double out);

  /// When the card's DMA-in engine frees.
  double dma_in_free(int card) const { return cards_[card].in_end; }

  /// When the card's last job leaves.
  double idle_at(int card) const { return cards_[card].out_end; }

 private:
  struct Card {
    double in_end = 0;
    double kernel_end = 0;
    double out_end = 0;
    double slot_free[2] = {0, 0};
    int slot = 0;
  };

  /// A scheduled job's bursts, kept while a later burst may meet them.
  struct Job {
    int card;
    double in_start, in;
    double out_start, out;
    double end;
  };

  double BusWait(int card, double t, double duration, bool inbound) const;

  const bool double_buffered_;
  std::vector<Card> cards_;
  std::vector<Job> jobs_;
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_DMA_TIMELINE_H_
