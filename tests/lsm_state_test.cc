#include "syssim/lsm_state.h"

#include "gtest/gtest.h"

namespace fcae {
namespace syssim {

namespace {
constexpr double kMB = 1048576.0;
constexpr double kFileSize = 2 * kMB;
}  // namespace

TEST(LsmStateTest, EmptyNeedsNoCompaction) {
  LsmState lsm(kFileSize, 10);
  CompactionWork work;
  EXPECT_FALSE(lsm.PickCompaction(&work));
  EXPECT_EQ(-1, lsm.DeepestLevel());
  EXPECT_EQ(0, lsm.PopulatedLevels());
}

TEST(LsmStateTest, L0TriggerAtFourFiles) {
  LsmState lsm(kFileSize, 10);
  CompactionWork work;
  for (int i = 0; i < 3; i++) {
    lsm.AddL0File(2 * kMB);
    EXPECT_FALSE(lsm.PickCompaction(&work)) << i;
  }
  lsm.AddL0File(2 * kMB);
  ASSERT_TRUE(lsm.PickCompaction(&work));
  EXPECT_EQ(0, work.level);
  EXPECT_EQ(4, work.l0_files_consumed);
  // 4 L0 files + empty L1: 4 engine inputs.
  EXPECT_EQ(4, work.device_inputs);
  EXPECT_DOUBLE_EQ(8 * kMB, work.input_bytes);
}

TEST(LsmStateTest, L0CompactionDragsL1) {
  LsmState lsm(kFileSize, 10);
  for (int i = 0; i < 4; i++) lsm.AddL0File(2 * kMB);
  CompactionWork work;
  ASSERT_TRUE(lsm.PickCompaction(&work));
  lsm.ApplyCompaction(work);
  EXPECT_EQ(0, lsm.l0_files());
  EXPECT_GT(lsm.level_bytes(1), 0);

  // Second round now overlaps L1: one extra engine input.
  for (int i = 0; i < 4; i++) lsm.AddL0File(2 * kMB);
  ASSERT_TRUE(lsm.PickCompaction(&work));
  EXPECT_EQ(5, work.device_inputs);
  EXPECT_GT(work.input_bytes, 8 * kMB);
}

TEST(LsmStateTest, DeepLevelTriggersOnBytes) {
  LsmState lsm(kFileSize, 10);
  // Push ~12 MB into L1 (cap 10 MB) via L0 compactions.
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < 4; i++) lsm.AddL0File(2 * kMB);
    CompactionWork work;
    ASSERT_TRUE(lsm.PickCompaction(&work));
    ASSERT_EQ(0, work.level);
    lsm.ApplyCompaction(work);
  }
  ASSERT_GT(lsm.level_bytes(1), 10 * kMB);
  CompactionWork work;
  ASSERT_TRUE(lsm.PickCompaction(&work));
  EXPECT_EQ(1, work.level);
  EXPECT_EQ(1, work.device_inputs);  // L1 run only: L2 is still empty.
  lsm.ApplyCompaction(work);
  EXPECT_GT(lsm.level_bytes(2), 0);
}

TEST(LsmStateTest, MaxBytesScalesWithLevelingRatio) {
  EXPECT_DOUBLE_EQ(10 * kMB * 10, MaxBytesForLevel(1, 10) * 10);
  EXPECT_DOUBLE_EQ(MaxBytesForLevel(2, 10), MaxBytesForLevel(1, 10) * 10);

  EXPECT_DOUBLE_EQ(MaxBytesForLevel(3, 4), MaxBytesForLevel(1, 4) * 16);
}

TEST(LsmStateTest, SnapshotSemanticsAcrossConcurrentFlush) {
  LsmState lsm(kFileSize, 10);
  for (int i = 0; i < 4; i++) lsm.AddL0File(2 * kMB);
  CompactionWork work;
  ASSERT_TRUE(lsm.PickCompaction(&work));

  // A flush lands while the compaction is "running".
  lsm.AddL0File(2 * kMB);
  lsm.ApplyCompaction(work);

  // The late file must survive.
  EXPECT_EQ(1, lsm.l0_files());
  EXPECT_DOUBLE_EQ(2 * kMB, lsm.level_bytes(0));
}

TEST(LsmStateTest, OverlapBoundedByConfiguredFiles) {
  LsmState lsm(kFileSize, 10, /*overlap_files=*/3.0);
  // Fill L1 well past its cap and L2 with plenty of data.
  for (int round = 0; round < 12; round++) {
    for (int i = 0; i < 4; i++) lsm.AddL0File(2 * kMB);
    CompactionWork work;
    ASSERT_TRUE(lsm.PickCompaction(&work));
    lsm.ApplyCompaction(work);
  }
  // Find an L>=1 compaction and check the overlap bound.
  CompactionWork work;
  ASSERT_TRUE(lsm.PickCompaction(&work));
  if (work.level >= 1) {
    EXPECT_LE(work.lower_bytes, 3.0 * kFileSize + 1);
  }
}

TEST(LsmStateTest, CascadePropagatesToDepth) {
  LsmState lsm(kFileSize, 4);
  // Sustained writes must populate several levels.
  for (int round = 0; round < 200; round++) {
    for (int i = 0; i < 4; i++) lsm.AddL0File(2 * kMB);
    CompactionWork work;
    int guard = 0;
    while (lsm.PickCompaction(&work) && guard++ < 100) {
      lsm.ApplyCompaction(work);
    }
  }
  EXPECT_GE(lsm.DeepestLevel(), 3);
  // Level sizes respect their caps after full compaction.
  for (int level = 1; level < lsm.DeepestLevel(); level++) {
    EXPECT_LE(lsm.level_bytes(level), MaxBytesForLevel(level, 4) * 1.01)
        << level;
  }
}

}  // namespace syssim
}  // namespace fcae
