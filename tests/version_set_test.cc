#include "lsm/version_set.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lsm/db.h"
#include "lsm/table_cache.h"
#include "util/mem_env.h"

namespace fcae {

class FindFileTest : public testing::Test {
 public:
  FindFileTest() : disjoint_sorted_files_(true) {}

  ~FindFileTest() override {
    for (size_t i = 0; i < files_.size(); i++) {
      delete files_[i];
    }
  }

  void Add(const char* smallest, const char* largest,
           SequenceNumber smallest_seq = 100,
           SequenceNumber largest_seq = 100) {
    FileMetaData* f = new FileMetaData;
    f->number = files_.size() + 1;
    f->smallest = InternalKey(smallest, smallest_seq, kTypeValue);
    f->largest = InternalKey(largest, largest_seq, kTypeValue);
    files_.push_back(f);
  }

  int Find(const char* key) {
    InternalKey target(key, 100, kTypeValue);
    InternalKeyComparator cmp(BytewiseComparator());
    return FindFile(cmp, files_, target.Encode());
  }

  bool Overlaps(const char* smallest, const char* largest) {
    InternalKeyComparator cmp(BytewiseComparator());
    Slice s(smallest != nullptr ? smallest : "");
    Slice l(largest != nullptr ? largest : "");
    return SomeFileOverlapsRange(cmp, disjoint_sorted_files_, files_,
                                 (smallest != nullptr ? &s : nullptr),
                                 (largest != nullptr ? &l : nullptr));
  }

  bool disjoint_sorted_files_;

 private:
  std::vector<FileMetaData*> files_;
};

TEST_F(FindFileTest, Empty) {
  ASSERT_EQ(0, Find("foo"));
  ASSERT_TRUE(!Overlaps("a", "z"));
  ASSERT_TRUE(!Overlaps(nullptr, "z"));
  ASSERT_TRUE(!Overlaps("a", nullptr));
  ASSERT_TRUE(!Overlaps(nullptr, nullptr));
}

TEST_F(FindFileTest, Single) {
  Add("p", "q");
  ASSERT_EQ(0, Find("a"));
  ASSERT_EQ(0, Find("p"));
  ASSERT_EQ(0, Find("p1"));
  ASSERT_EQ(0, Find("q"));
  ASSERT_EQ(1, Find("q1"));
  ASSERT_EQ(1, Find("z"));

  ASSERT_TRUE(!Overlaps("a", "b"));
  ASSERT_TRUE(!Overlaps("z1", "z2"));
  ASSERT_TRUE(Overlaps("a", "p"));
  ASSERT_TRUE(Overlaps("a", "q"));
  ASSERT_TRUE(Overlaps("a", "z"));
  ASSERT_TRUE(Overlaps("p", "p1"));
  ASSERT_TRUE(Overlaps("p", "q"));
  ASSERT_TRUE(Overlaps("p", "z"));
  ASSERT_TRUE(Overlaps("p1", "p2"));
  ASSERT_TRUE(Overlaps("p1", "z"));
  ASSERT_TRUE(Overlaps("q", "q"));
  ASSERT_TRUE(Overlaps("q", "q1"));

  ASSERT_TRUE(!Overlaps(nullptr, "j"));
  ASSERT_TRUE(!Overlaps("r", nullptr));
  ASSERT_TRUE(Overlaps(nullptr, "p"));
  ASSERT_TRUE(Overlaps(nullptr, "p1"));
  ASSERT_TRUE(Overlaps("q", nullptr));
  ASSERT_TRUE(Overlaps(nullptr, nullptr));
}

TEST_F(FindFileTest, Multiple) {
  Add("150", "200");
  Add("200", "250");
  Add("300", "350");
  Add("400", "450");
  ASSERT_EQ(0, Find("100"));
  ASSERT_EQ(0, Find("150"));
  ASSERT_EQ(0, Find("151"));
  ASSERT_EQ(0, Find("199"));
  ASSERT_EQ(0, Find("200"));
  ASSERT_EQ(1, Find("201"));
  ASSERT_EQ(1, Find("249"));
  ASSERT_EQ(1, Find("250"));
  ASSERT_EQ(2, Find("251"));
  ASSERT_EQ(2, Find("299"));
  ASSERT_EQ(2, Find("300"));
  ASSERT_EQ(2, Find("349"));
  ASSERT_EQ(2, Find("350"));
  ASSERT_EQ(3, Find("351"));
  ASSERT_EQ(3, Find("400"));
  ASSERT_EQ(3, Find("450"));
  ASSERT_EQ(4, Find("451"));

  ASSERT_TRUE(!Overlaps("100", "149"));
  ASSERT_TRUE(!Overlaps("251", "299"));
  ASSERT_TRUE(!Overlaps("451", "500"));
  ASSERT_TRUE(!Overlaps("351", "399"));

  ASSERT_TRUE(Overlaps("100", "150"));
  ASSERT_TRUE(Overlaps("100", "200"));
  ASSERT_TRUE(Overlaps("100", "300"));
  ASSERT_TRUE(Overlaps("100", "400"));
  ASSERT_TRUE(Overlaps("100", "500"));
  ASSERT_TRUE(Overlaps("375", "400"));
  ASSERT_TRUE(Overlaps("450", "450"));
  ASSERT_TRUE(Overlaps("450", "500"));
}

TEST_F(FindFileTest, MultipleNullBoundaries) {
  Add("150", "200");
  Add("200", "250");
  Add("300", "350");
  Add("400", "450");
  ASSERT_TRUE(!Overlaps(nullptr, "149"));
  ASSERT_TRUE(!Overlaps("451", nullptr));
  ASSERT_TRUE(Overlaps(nullptr, nullptr));
  ASSERT_TRUE(Overlaps(nullptr, "150"));
  ASSERT_TRUE(Overlaps(nullptr, "199"));
  ASSERT_TRUE(Overlaps(nullptr, "200"));
  ASSERT_TRUE(Overlaps(nullptr, "201"));
  ASSERT_TRUE(Overlaps(nullptr, "400"));
  ASSERT_TRUE(Overlaps(nullptr, "800"));
  ASSERT_TRUE(Overlaps("100", nullptr));
  ASSERT_TRUE(Overlaps("200", nullptr));
  ASSERT_TRUE(Overlaps("449", nullptr));
  ASSERT_TRUE(Overlaps("450", nullptr));
}

TEST_F(FindFileTest, OverlapSequenceChecks) {
  Add("200", "200", 5000, 3000);
  ASSERT_TRUE(!Overlaps("199", "199"));
  ASSERT_TRUE(!Overlaps("201", "300"));
  ASSERT_TRUE(Overlaps("200", "200"));
  ASSERT_TRUE(Overlaps("190", "200"));
  ASSERT_TRUE(Overlaps("200", "210"));
}

TEST_F(FindFileTest, OverlappingFiles) {
  Add("150", "600");
  Add("400", "500");
  disjoint_sorted_files_ = false;
  ASSERT_TRUE(!Overlaps("100", "149"));
  ASSERT_TRUE(!Overlaps("601", "700"));
  ASSERT_TRUE(Overlaps("100", "150"));
  ASSERT_TRUE(Overlaps("100", "200"));
  ASSERT_TRUE(Overlaps("100", "300"));
  ASSERT_TRUE(Overlaps("100", "400"));
  ASSERT_TRUE(Overlaps("100", "500"));
  ASSERT_TRUE(Overlaps("375", "400"));
  ASSERT_TRUE(Overlaps("450", "450"));
  ASSERT_TRUE(Overlaps("450", "500"));
  ASSERT_TRUE(Overlaps("450", "700"));
  ASSERT_TRUE(Overlaps("600", "700"));
}

// The compaction trigger as the engine runs it: a VersionSet on a MemEnv
// whose level shapes are installed with LogAndApply. The files exist
// only as metadata; picking a compaction opens no table.
class VersionSetTriggerTest : public testing::Test {
 protected:
  static constexpr uint64_t kMiB = 1048576;

  void SetUp() override {
    env_.reset(NewMemEnv(Env::Default()));
    options_.env = env_.get();
    options_.create_if_missing = true;
  }

  void TearDown() override { Close(); }

  // Creates an empty DB named `name` and recovers its VersionSet.
  void Create(const std::string& name) {
    Close();
    dbname_ = name;
    DB* db = nullptr;
    ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
    delete db;
    Reopen();
  }

  // Recovers a new VersionSet from the DB's manifest, as an open does.
  void Reopen() {
    Close();
    table_cache_ = std::make_unique<TableCache>(dbname_, options_, 100);
    versions_ = std::make_unique<VersionSet>(dbname_, &options_,
                                             table_cache_.get(), &icmp_);
    bool save_manifest = false;
    ASSERT_TRUE(versions_->Recover(&save_manifest).ok());
  }

  void Close() {
    versions_.reset();
    table_cache_.reset();
  }

  // Adds `count` files of `bytes` each at `level` to *edit, over key
  // ranges that no other file covers.
  void AddFiles(VersionEdit* edit, int level, int count, uint64_t bytes) {
    for (int i = 0; i < count; i++) {
      edit->AddFile(level, versions_->NewFileNumber(), bytes, Key(next_key_),
                    Key(next_key_ + 1));
      next_key_ += 2;
    }
  }

  void AddFiles(int level, int count, uint64_t bytes) {
    VersionEdit edit;
    AddFiles(&edit, level, count, bytes);
    Apply(&edit);
  }

  void Apply(VersionEdit* edit) {
    MutexLock l(&mu_);
    ASSERT_TRUE(versions_->LogAndApply(edit, &mu_).ok());
  }

  // The level PickCompaction(busy_levels) picks, or -1.
  int PickedLevel(uint32_t busy_levels) {
    std::unique_ptr<Compaction> c(versions_->PickCompaction(busy_levels));
    return c == nullptr ? -1 : c->level();
  }

  // Successive PickCompaction claims from `busy_levels`, each claiming
  // its level pair, as newly dispatched workers would.
  int Claims(uint32_t busy_levels) {
    int claims = 0;
    while (claims <= kNumLevels) {
      std::unique_ptr<Compaction> c(versions_->PickCompaction(busy_levels));
      if (c == nullptr) break;
      EXPECT_EQ(0u, busy_levels & LevelPairMask(c->level()));
      busy_levels |= LevelPairMask(c->level());
      claims++;
    }
    return claims;
  }

  static InternalKey Key(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%08d", i);
    return InternalKey(buf, 1, kTypeValue);
  }

  std::unique_ptr<Env> env_;
  Options options_;
  const InternalKeyComparator icmp_{BytewiseComparator()};
  std::string dbname_;
  std::unique_ptr<TableCache> table_cache_;
  std::unique_ptr<VersionSet> versions_;
  Mutex mu_;
  int next_key_ = 0;
};

TEST_F(VersionSetTriggerTest, PicksAtTheThresholds) {
  Create("/l0");
  AddFiles(0, 3, kMiB);
  EXPECT_EQ(-1, PickedLevel(0));
  EXPECT_EQ(0, versions_->CountClaimableCompactions(0));
  AddFiles(0, 1, kMiB);
  EXPECT_EQ(0, PickedLevel(0));
  EXPECT_EQ(1, versions_->CountClaimableCompactions(0));

  Create("/l1");
  AddFiles(1, 4, 2 * kMiB);
  AddFiles(1, 1, 2 * kMiB - 1);
  EXPECT_EQ(-1, PickedLevel(0));
  AddFiles(1, 1, 1);  // Exactly 10 MiB.
  EXPECT_EQ(1, PickedLevel(0));

  options_.leveling_ratio = 4;
  Create("/l2");
  AddFiles(2, 3, 10 * kMiB);
  AddFiles(2, 1, 10 * kMiB - 1);
  EXPECT_EQ(-1, PickedLevel(0));
  AddFiles(2, 1, 1);  // Exactly 10 MiB times the ratio.
  EXPECT_EQ(2, PickedLevel(0));
  EXPECT_EQ(-1, PickedLevel(LevelPairMask(1)));
}

TEST_F(VersionSetTriggerTest, CountMatchesSuccessiveClaims) {
  struct Shape {
    const char* name;
    int files[kNumLevels];
    uint64_t file_bytes[kNumLevels];
    int claimable;  // From an idle scheduler.
  };
  const Shape shapes[] = {
      {"/every_level_over",
       {8, 8, 6, 3, 2, 1, 0},
       {kMiB, 2 * kMiB, 20 * kMiB, 500 * kMiB, 6000 * kMiB, 150000 * kMiB, 0},
       3},
      {"/ties_at_one",
       {4, 5, 0, 2, 0, 1, 0},
       {kMiB, 2 * kMiB, 0, 500 * kMiB, 0, 100000 * kMiB, 0},
       3},
      {"/under_and_over",
       {3, 6, 4, 0, 1, 0, 0},
       {kMiB, 2 * kMiB, 20 * kMiB, 0, 20000 * kMiB, 0, 0},
       2},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    Create(shape.name);
    for (int level = 0; level < kNumLevels; level++) {
      if (shape.files[level] > 0) {
        AddFiles(level, shape.files[level], shape.file_bytes[level]);
      }
    }
    EXPECT_EQ(shape.claimable, versions_->CountClaimableCompactions(0));
    for (uint32_t mask = 0; mask < 128; mask++) {
      EXPECT_EQ(Claims(mask), versions_->CountClaimableCompactions(mask))
          << "busy mask " << mask;
    }
  }
}

TEST_F(VersionSetTriggerTest, DebtFollowsInstallsAndRecovery) {
  Create("/debt");
  EXPECT_EQ(0u, versions_->PendingCompactionBytes());
  AddFiles(0, 6, 3 * kMiB);    // Two files past the trigger.
  AddFiles(1, 6, 2 * kMiB);    // 12 MiB, 2 MiB past its target.
  AddFiles(2, 4, 20 * kMiB);   // 80 MiB, under its target.
  AddFiles(3, 2, 600 * kMiB);  // 1200 MiB, 200 MiB past its target.
  uint64_t debt = 2 * 3 * kMiB + 2 * kMiB + 200 * kMiB;
  EXPECT_EQ(debt, versions_->PendingCompactionBytes());

  // The next install moves it: one L0 file leaves, L2 passes its target.
  VersionEdit edit;
  edit.RemoveFile(0, versions_->current()->files(0)[0]->number);
  AddFiles(&edit, 2, 1, 40 * kMiB);  // 120 MiB.
  Apply(&edit);
  debt = 3 * kMiB + 2 * kMiB + 20 * kMiB + 200 * kMiB;
  EXPECT_EQ(debt, versions_->PendingCompactionBytes());
  EXPECT_EQ(static_cast<int64_t>(120 * kMiB), versions_->NumLevelBytes(2));

  Reopen();
  EXPECT_EQ(debt, versions_->PendingCompactionBytes());
  EXPECT_EQ(static_cast<int64_t>(15 * kMiB), versions_->NumLevelBytes(0));
  EXPECT_EQ(static_cast<int64_t>(120 * kMiB), versions_->NumLevelBytes(2));
}

}  // namespace fcae
