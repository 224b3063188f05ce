#ifndef FCAE_SYSSIM_LSM_STATE_H_
#define FCAE_SYSSIM_LSM_STATE_H_

#include <cstdint>

#include "lsm/dbformat.h"

namespace fcae {
namespace syssim {

/// One table-merging compaction in the abstract LSM model.
struct CompactionWork {
  int level = -1;          // Inputs from `level` and `level + 1`.
  double input_bytes = 0;   // On-disk bytes read and merged.
  double output_bytes = 0;  // On-disk bytes written into level + 1.
  double upper_bytes = 0;   // Bytes taken from `level` (snapshot at pick).
  double lower_bytes = 0;   // Bytes taken from `level + 1`.
  int l0_files_consumed = 0;
  int device_inputs = 0;    // Engine inputs needed (paper Section VI-A).
};

/// File/byte-granularity model of LevelDB's leveled shape: level 0 is
/// bounded by file count (4/8/12 triggers), deeper levels by bytes with
/// the configurable leveling ratio (Fig. 15d). Key ranges are treated as
/// uniformly spread, so an L0 compaction overlaps all of L1 and an
/// L>=1 file overlaps ~ratio files below — the average-case geometry of
/// a random-write workload.
class LsmState {
 public:
  /// `overlap_files`: average number of next-level files a compaction
  /// input file overlaps. The worst case equals the leveling ratio;
  /// boundary trimming and compaction-pointer round-robin make the
  /// average lower (calibration knob; LevelDB practice ~6-8 at ratio
  /// 10).
  LsmState(double file_size_bytes, int leveling_ratio,
           double overlap_files = 7.0);

  /// A memtable flush adds one level-0 file of the given on-disk size.
  void AddL0File(double bytes);

  int l0_files() const { return l0_files_; }
  double level_bytes(int level) const { return bytes_[level]; }
  double TotalBytes() const;

  /// Deepest non-empty level (0 when only L0 holds data, -1 when empty).
  int DeepestLevel() const;
  /// Number of populated levels (for the read-cost model).
  int PopulatedLevels() const;

  /// Picks the level the storage engine's trigger would (ScoreLevels and
  /// PickLevel in lsm/dbformat.h). Returns false when nothing is needed.
  /// `max_l0_files` > 0 caps how many level-0 files one job consumes
  /// (the oldest ones — newer files shadow them, so the subset is
  /// correct); the paper's FPGA-optimized scheduler uses N-1 so level-0
  /// jobs fit the device. `busy_levels` excludes levels claimed by
  /// in-flight compactions: a job at L occupies LevelPairMask(L), as in
  /// the storage engine's CompactionScheduler.
  bool PickCompaction(CompactionWork* work, int max_l0_files = 0,
                      uint32_t busy_levels = 0) const;

  /// Applies the state change of a completed compaction.
  void ApplyCompaction(const CompactionWork& work);

 private:
  double file_size_;
  int ratio_;
  double overlap_files_;
  int l0_files_ = 0;
  double bytes_[kNumLevels] = {0};

  /// Fraction of merged bytes surviving a compaction (dedup of
  /// overwritten keys; mild for random-key workloads).
  static constexpr double kSurvival = 0.97;
};

}  // namespace syssim
}  // namespace fcae

#endif  // FCAE_SYSSIM_LSM_STATE_H_
