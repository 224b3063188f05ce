#include "lsm/repair.h"

#include <memory>

#include "gtest/gtest.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "lsm/filename.h"
#include "table/iterator.h"
#include "test_util.h"
#include "util/corruption_env.h"
#include "util/mem_env.h"

namespace fcae {

class RepairTest : public testing::Test {
 public:
  RepairTest() : env_(NewMemEnv(Env::Default())), dbname_("/repairme") {
    Open();
  }

  void Open() {
    db_.reset();
    Options options = DefaultOptions();
    DB* db = nullptr;
    ASSERT_TRUE(DB::Open(options, dbname_, &db).ok());
    db_.reset(db);
  }

  Options DefaultOptions() {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    return options;
  }

  void Close() { db_.reset(); }

  Status Repair() { return RepairDB(dbname_, DefaultOptions()); }

  std::string Get(const std::string& k) {
    std::string v;
    Status s = db_->Get(ReadOptions(), k, &v);
    return s.ok() ? v : (s.IsNotFound() ? "NOT_FOUND" : s.ToString());
  }

  void RemoveManifestAndCurrent() {
    std::vector<std::string> children;
    ASSERT_TRUE(env_->GetChildren(dbname_, &children).ok());
    for (const std::string& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) &&
          (type == FileType::kDescriptorFile ||
           type == FileType::kCurrentFile)) {
        ASSERT_TRUE(env_->RemoveFile(dbname_ + "/" + child).ok());
      }
    }
  }

  std::unique_ptr<Env> env_;
  std::string dbname_;
  std::unique_ptr<DB> db_;
};

TEST_F(RepairTest, RecoversFlushedDataWithoutManifest) {
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::Cat("key", i),
                         test::Cat("value", i))
                    .ok());
  }
  ASSERT_TRUE(
      reinterpret_cast<DBImpl*>(db_.get())->TEST_CompactMemTable().ok());
  Close();
  RemoveManifestAndCurrent();

  ASSERT_TRUE(Repair().ok());
  Open();
  for (int i = 0; i < 2000; i += 53) {
    ASSERT_EQ(test::Cat("value", i), Get(test::Cat("key", i)));
  }
}

TEST_F(RepairTest, RecoversUnflushedWalDataToo) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "flushed", "f").ok());
  ASSERT_TRUE(
      reinterpret_cast<DBImpl*>(db_.get())->TEST_CompactMemTable().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "walled", "w").ok());
  Close();
  RemoveManifestAndCurrent();

  ASSERT_TRUE(Repair().ok());
  Open();
  ASSERT_EQ("f", Get("flushed"));
  ASSERT_EQ("w", Get("walled"));
}

TEST_F(RepairTest, UnreadableTableIsQuarantinedNotFatal) {
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::Cat("a", i), "1").ok());
  }
  ASSERT_TRUE(
      reinterpret_cast<DBImpl*>(db_.get())->TEST_CompactMemTable().ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::Cat("b", i), "2").ok());
  }
  ASSERT_TRUE(
      reinterpret_cast<DBImpl*>(db_.get())->TEST_CompactMemTable().ok());
  Close();

  // Destroy one of the two tables completely.
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dbname_, &children).ok());
  std::string victim;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kTableFile) {
      victim = dbname_ + "/" + child;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(
      WriteStringToFile(env_.get(), std::string(100, 'x'), victim).ok());
  RemoveManifestAndCurrent();

  ASSERT_TRUE(Repair().ok());
  Open();
  // One of the two prefixes survived in full.
  int a_found = 0, b_found = 0;
  for (int i = 0; i < 500; i++) {
    if (Get(test::Cat("a", i)) == "1") a_found++;
    if (Get(test::Cat("b", i)) == "2") b_found++;
  }
  EXPECT_TRUE(a_found == 500 || b_found == 500);
}

TEST_F(RepairTest, BitRottedTableIsArchivedAndRestSalvaged) {
  // Two tables: 2000 'a' keys, then 2000 'b' keys. Flip a few bytes in
  // one of them (realistic at-rest rot, not total destruction), delete
  // the manifest, and RepairDB. The salvaged key set must be exactly
  // the intact table's keys — never wrong data from the rotten one.
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::Cat("a", i), "1").ok());
  }
  ASSERT_TRUE(
      reinterpret_cast<DBImpl*>(db_.get())->TEST_CompactMemTable().ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::Cat("b", i), "2").ok());
  }
  ASSERT_TRUE(
      reinterpret_cast<DBImpl*>(db_.get())->TEST_CompactMemTable().ok());
  Close();

  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dbname_, &children).ok());
  std::vector<std::string> tables;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kTableFile) {
      tables.push_back(dbname_ + "/" + child);
    }
  }
  ASSERT_EQ(2u, tables.size());
  CorruptionInjectionEnv rot(env_.get());
  ASSERT_TRUE(rot.CorruptFile(tables[0], /*seed=*/42, /*flips=*/3).ok());
  RemoveManifestAndCurrent();

  ASSERT_TRUE(Repair().ok());
  Open();
  int a_found = 0, b_found = 0, wrong = 0;
  for (int i = 0; i < 2000; i++) {
    std::string a = Get(test::Cat("a", i));
    std::string b = Get(test::Cat("b", i));
    if (a == "1") a_found++;
    else if (a != "NOT_FOUND") wrong++;
    if (b == "2") b_found++;
    else if (b != "NOT_FOUND") wrong++;
  }
  EXPECT_EQ(0, wrong);
  // Exactly one prefix survived in full (whichever table stayed clean);
  // the rotten table was archived whole rather than half-trusted.
  EXPECT_TRUE((a_found == 2000) != (b_found == 2000))
      << "a=" << a_found << " b=" << b_found;
}

TEST_F(RepairTest, RepairedDbKeepsWorking) {
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::Cat("k", i), "v").ok());
  }
  ASSERT_TRUE(
      reinterpret_cast<DBImpl*>(db_.get())->TEST_CompactMemTable().ok());
  Close();
  RemoveManifestAndCurrent();
  ASSERT_TRUE(Repair().ok());
  Open();

  // New writes, compactions and reopens keep functioning.
  for (int i = 1000; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::Cat("k", i), "v").ok());
  }
  ASSERT_TRUE(
      reinterpret_cast<DBImpl*>(db_.get())->TEST_CompactMemTable().ok());
  for (int level = 0; level < kNumLevels - 1; level++) {
    reinterpret_cast<DBImpl*>(db_.get())
        ->TEST_CompactRange(level, nullptr, nullptr);
  }
  Open();
  int found = 0;
  for (int i = 0; i < 2000; i++) {
    if (Get(test::Cat("k", i)) == "v") found++;
  }
  ASSERT_EQ(2000, found);
}

}  // namespace fcae
