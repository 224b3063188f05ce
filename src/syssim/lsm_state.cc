#include "syssim/lsm_state.h"

#include <algorithm>
#include <cassert>

namespace fcae {
namespace syssim {

LsmState::LsmState(double file_size_bytes, int leveling_ratio,
                   double overlap_files)
    : file_size_(file_size_bytes),
      ratio_(leveling_ratio),
      overlap_files_(overlap_files) {}

void LsmState::AddL0File(double bytes) {
  l0_files_++;
  bytes_[0] += bytes;
}

double LsmState::TotalBytes() const {
  double total = 0;
  for (double b : bytes_) total += b;
  return total;
}

int LsmState::DeepestLevel() const {
  for (int level = kNumLevels - 1; level >= 0; level--) {
    if (bytes_[level] > 0) return level;
  }
  return -1;
}

int LsmState::PopulatedLevels() const {
  int populated = 0;
  for (double b : bytes_) {
    if (b > 0) populated++;
  }
  return populated;
}

bool LsmState::PickCompaction(CompactionWork* work, int max_l0_files,
                              uint32_t busy_levels) const {
  double scores[kNumLevels];
  ScoreLevels(l0_files_, bytes_, ratio_, scores);
  const int level = PickLevel(scores, busy_levels);
  if (level < 0) {
    return false;
  }

  work->level = level;
  if (level == 0) {
    // All L0 files overlap (random keys span the space) and drag in the
    // whole of L1. A capped job takes the oldest files only.
    int consumed = l0_files_;
    if (max_l0_files > 0 && consumed > max_l0_files) {
      consumed = max_l0_files;
    }
    work->l0_files_consumed = consumed;
    work->upper_bytes =
        bytes_[0] * (static_cast<double>(consumed) / l0_files_);
    work->lower_bytes = bytes_[1];
    work->device_inputs = consumed + (bytes_[1] > 0 ? 1 : 0);
  } else {
    work->l0_files_consumed = 0;
    work->upper_bytes = std::min(file_size_, bytes_[level]);
    work->lower_bytes = std::min(
        bytes_[level + 1],
        std::min<double>(ratio_, overlap_files_) * file_size_);
    work->device_inputs =
        (work->upper_bytes > 0 ? 1 : 0) + (work->lower_bytes > 0 ? 1 : 0);
  }
  work->input_bytes = work->upper_bytes + work->lower_bytes;
  work->output_bytes = work->input_bytes * kSurvival;
  return true;
}

void LsmState::ApplyCompaction(const CompactionWork& work) {
  // Amounts were snapshotted at pick time: flushes that landed in L0
  // while the compaction ran stay behind for the next round, exactly as
  // new files do in the real engine.
  if (work.level == 0) {
    l0_files_ -= work.l0_files_consumed;
    assert(l0_files_ >= 0);
    bytes_[0] = std::max(0.0, bytes_[0] - work.upper_bytes);
    bytes_[1] = bytes_[1] - work.lower_bytes + work.output_bytes;
  } else {
    bytes_[work.level] =
        std::max(0.0, bytes_[work.level] - work.upper_bytes);
    bytes_[work.level + 1] =
        bytes_[work.level + 1] - work.lower_bytes + work.output_bytes;
  }
}

}  // namespace syssim
}  // namespace fcae
