#include "lsm/db.h"

#include <map>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "lsm/db_impl.h"
#include "lsm/dbformat.h"
#include "lsm/write_batch.h"
#include "table/iterator.h"
#include "test_util.h"
#include "util/env.h"
#include "util/filter_policy.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {

namespace {

std::string RandomValue(Random* rnd, size_t len) {
  std::string v;
  v.reserve(len);
  for (size_t i = 0; i < len; i++) {
    v.push_back(static_cast<char>(' ' + rnd->Uniform(95)));
  }
  return v;
}

}  // namespace

class DBTest : public testing::Test {
 public:
  DBTest() : env_(NewMemEnv(Env::Default())), db_(nullptr) {
    dbname_ = "/dbtest";
    options_.env = env_.get();
    options_.create_if_missing = true;
    Reopen();
  }

  ~DBTest() override {
    delete db_;
    DestroyDB(dbname_, options_).IgnoreError();  // best-effort teardown
  }

  void Reopen(Options* new_options = nullptr) {
    delete db_;
    db_ = nullptr;
    Options opts = (new_options != nullptr) ? *new_options : options_;
    opts.env = env_.get();
    opts.create_if_missing = true;
    ASSERT_TRUE(DB::Open(opts, dbname_, &db_).ok());
  }

  void DestroyAndReopen(Options* new_options = nullptr) {
    delete db_;
    db_ = nullptr;
    ASSERT_TRUE(DestroyDB(dbname_, options_).ok());
    Reopen(new_options);
  }

  Status Put(const std::string& k, const std::string& v) {
    return db_->Put(WriteOptions(), k, v);
  }

  Status Delete(const std::string& k) {
    return db_->Delete(WriteOptions(), k);
  }

  std::string Get(const std::string& k, const Snapshot* snapshot = nullptr) {
    ReadOptions options;
    if (snapshot != nullptr) {
      // Snapshot handles expose sequence numbers via the impl.
      options.snapshot_sequence =
          static_cast<const SnapshotImpl*>(snapshot)->sequence_number();
    }
    std::string result;
    Status s = db_->Get(options, k, &result);
    if (s.IsNotFound()) {
      result = "NOT_FOUND";
    } else if (!s.ok()) {
      result = s.ToString();
    }
    return result;
  }

  int NumTableFilesAtLevel(int level) {
    std::string property;
    EXPECT_TRUE(db_->GetProperty(
        test::Cat("fcae.num-files-at-level", level), &property));
    return std::stoi(property);
  }

  int TotalTableFiles() {
    int result = 0;
    for (int level = 0; level < kNumLevels; level++) {
      result += NumTableFilesAtLevel(level);
    }
    return result;
  }

  DBImpl* dbfull() { return reinterpret_cast<DBImpl*>(db_); }

  /// Flushes the memtable and merges every level downward so the whole
  /// key space ends up fully compacted (memtable flushes may skip to
  /// level 2, so a single level-0 pass is not enough).
  void CompactAllLevels() {
    ASSERT_TRUE(dbfull()->TEST_CompactMemTable().ok());
    for (int level = 0; level < kNumLevels - 1; level++) {
      dbfull()->TEST_CompactRange(level, nullptr, nullptr);
    }
  }

  /// Returns the DB contents as "(k1->v1)(k2->v2)..." via an iterator.
  std::string Contents() {
    std::string result;
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      result += test::Cat("(", iter->key().ToString(), "->",
                          iter->value().ToString(), ")");
    }
    EXPECT_TRUE(iter->status().ok());
    return result;
  }

  std::unique_ptr<Env> env_;
  std::string dbname_;
  Options options_;
  DB* db_;
};

TEST_F(DBTest, Empty) {
  ASSERT_TRUE(db_ != nullptr);
  ASSERT_EQ("NOT_FOUND", Get("foo"));
}

TEST_F(DBTest, ReadWrite) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("bar", "v2").ok());
  ASSERT_TRUE(Put("foo", "v3").ok());
  ASSERT_EQ("v3", Get("foo"));
  ASSERT_EQ("v2", Get("bar"));
}

TEST_F(DBTest, PutDeleteGet) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("foo", "v2").ok());
  ASSERT_EQ("v2", Get("foo"));
  ASSERT_TRUE(Delete("foo").ok());
  ASSERT_EQ("NOT_FOUND", Get("foo"));
}

TEST_F(DBTest, GetFromImmutableLayer) {
  Options options = options_;
  options.write_buffer_size = 100000;  // Small write buffer
  DestroyAndReopen(&options);

  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_EQ("v1", Get("foo"));

  // Fill the memtable so "foo" lands in an sstable.
  ASSERT_TRUE(Put("k1", std::string(100000, 'x')).ok());
  ASSERT_TRUE(Put("k2", std::string(100000, 'y')).ok());
  ASSERT_EQ("v1", Get("foo"));
}

TEST_F(DBTest, GetFromVersions) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_TRUE(dbfull()->TEST_CompactMemTable().ok());
  ASSERT_EQ("v1", Get("foo"));
  ASSERT_GE(TotalTableFiles(), 1);
}

TEST_F(DBTest, GetPicksCorrectFile) {
  // Arrange to have multiple files in a non-level-0 level.
  ASSERT_TRUE(Put("a", "va").ok());
  ASSERT_TRUE(dbfull()->TEST_CompactMemTable().ok());
  dbfull()->TEST_CompactRange(0, nullptr, nullptr);
  ASSERT_TRUE(Put("x", "vx").ok());
  ASSERT_TRUE(dbfull()->TEST_CompactMemTable().ok());
  dbfull()->TEST_CompactRange(0, nullptr, nullptr);
  ASSERT_TRUE(Put("f", "vf").ok());
  ASSERT_TRUE(dbfull()->TEST_CompactMemTable().ok());
  dbfull()->TEST_CompactRange(0, nullptr, nullptr);
  ASSERT_EQ("va", Get("a"));
  ASSERT_EQ("vf", Get("f"));
  ASSERT_EQ("vx", Get("x"));
}

TEST_F(DBTest, GetMemUsage) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  std::string val;
  ASSERT_TRUE(db_->GetProperty("fcae.approximate-memory-usage", &val));
  int mem_usage = std::stoi(val);
  ASSERT_GT(mem_usage, 0);
  ASSERT_LT(mem_usage, 5 * 1024 * 1024);
}

TEST_F(DBTest, IterEmpty) {
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  ASSERT_FALSE(iter->Valid());
  iter->SeekToLast();
  ASSERT_FALSE(iter->Valid());
  iter->Seek("foo");
  ASSERT_FALSE(iter->Valid());
}

TEST_F(DBTest, IterSingle) {
  ASSERT_TRUE(Put("a", "va").ok());
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));

  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("a", iter->key().ToString());
  iter->Next();
  ASSERT_FALSE(iter->Valid());

  iter->SeekToLast();
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("a", iter->key().ToString());
  iter->Prev();
  ASSERT_FALSE(iter->Valid());
}

TEST_F(DBTest, IterMulti) {
  ASSERT_TRUE(Put("a", "va").ok());
  ASSERT_TRUE(Put("b", "vb").ok());
  ASSERT_TRUE(Put("c", "vc").ok());
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));

  iter->SeekToFirst();
  ASSERT_EQ("a", iter->key().ToString());
  iter->Next();
  ASSERT_EQ("b", iter->key().ToString());
  iter->Next();
  ASSERT_EQ("c", iter->key().ToString());
  iter->Next();
  ASSERT_FALSE(iter->Valid());

  iter->SeekToLast();
  ASSERT_EQ("c", iter->key().ToString());
  iter->Prev();
  ASSERT_EQ("b", iter->key().ToString());
  iter->Prev();
  ASSERT_EQ("a", iter->key().ToString());
  iter->Prev();
  ASSERT_FALSE(iter->Valid());

  iter->Seek("b");
  ASSERT_EQ("b", iter->key().ToString());
  iter->Seek("b1");
  ASSERT_EQ("c", iter->key().ToString());

  // Switch directions mid-iteration.
  iter->Seek("b");
  iter->Prev();
  ASSERT_EQ("a", iter->key().ToString());
  iter->Next();
  ASSERT_EQ("b", iter->key().ToString());
}

TEST_F(DBTest, IterSnapshotSemantics) {
  ASSERT_TRUE(Put("a", "v1").ok());
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  ASSERT_TRUE(Put("a", "v2").ok());
  ASSERT_TRUE(Put("b", "vb").ok());

  // Iterator sees the state at creation time.
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("a", iter->key().ToString());
  ASSERT_EQ("v1", iter->value().ToString());
  iter->Next();
  ASSERT_FALSE(iter->Valid());
}

TEST_F(DBTest, IterHidesDeletions) {
  ASSERT_TRUE(Put("a", "va").ok());
  ASSERT_TRUE(Put("b", "vb").ok());
  ASSERT_TRUE(Put("c", "vc").ok());
  ASSERT_TRUE(Delete("b").ok());
  ASSERT_EQ("(a->va)(c->vc)", Contents());
}

TEST_F(DBTest, Recover) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_TRUE(Put("baz", "v5").ok());

  Reopen();
  ASSERT_EQ("v1", Get("foo"));
  ASSERT_EQ("v5", Get("baz"));
  ASSERT_TRUE(Put("bar", "v2").ok());
  ASSERT_TRUE(Put("foo", "v3").ok());

  Reopen();
  ASSERT_EQ("v3", Get("foo"));
  ASSERT_TRUE(Put("foo", "v4").ok());
  ASSERT_EQ("v4", Get("foo"));
  ASSERT_EQ("v2", Get("bar"));
  ASSERT_EQ("v5", Get("baz"));
}

TEST_F(DBTest, RecoveryWithEmptyLog) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_TRUE(Put("foo", "v2").ok());
  Reopen();
  Reopen();
  ASSERT_TRUE(Put("foo", "v3").ok());
  Reopen();
  ASSERT_EQ("v3", Get("foo"));
}

TEST_F(DBTest, RecoverDuringMemtableCompaction) {
  Options options = options_;
  options.write_buffer_size = 1000000;
  DestroyAndReopen(&options);

  // Trigger a long memtable compaction and reopen the database during
  // it.
  ASSERT_TRUE(Put("foo", "v1").ok());  // Goes to 1st log file
  ASSERT_TRUE(
      Put("big1", std::string(10000000, 'x')).ok());        // Fills memtable
  ASSERT_TRUE(Put("big2", std::string(1000, 'y')).ok());    // Triggers comp.
  ASSERT_TRUE(Put("bar", "v2").ok());

  Reopen(&options);
  ASSERT_EQ("v1", Get("foo"));
  ASSERT_EQ("v2", Get("bar"));
  ASSERT_EQ(std::string(10000000, 'x'), Get("big1"));
  ASSERT_EQ(std::string(1000, 'y'), Get("big2"));
}

TEST_F(DBTest, MinorCompactionsHappen) {
  Options options = options_;
  options.write_buffer_size = 10000;
  DestroyAndReopen(&options);

  const int N = 500;

  int starting_num_tables = TotalTableFiles();
  for (int i = 0; i < N; i++) {
    ASSERT_TRUE(
        Put(test::Cat("k", i), test::Cat(i, std::string(1000, 'v')))
            .ok());
  }
  int ending_num_tables = TotalTableFiles();
  ASSERT_GT(ending_num_tables, starting_num_tables);

  for (int i = 0; i < N; i++) {
    ASSERT_EQ(std::to_string(i) + std::string(1000, 'v'),
              Get(test::Cat("k", i)));
  }

  Reopen(&options);
  for (int i = 0; i < N; i++) {
    ASSERT_EQ(std::to_string(i) + std::string(1000, 'v'),
              Get(test::Cat("k", i)));
  }
}

TEST_F(DBTest, CompactionsGenerateMultipleFiles) {
  Options options = options_;
  options.write_buffer_size = 100000000;  // Large write buffer
  options.max_file_size = 1 << 20;
  DestroyAndReopen(&options);

  Random rnd(301);

  // Write 8MB (80 values, each 100K).
  ASSERT_EQ(NumTableFilesAtLevel(0), 0);
  std::vector<std::string> values;
  for (int i = 0; i < 80; i++) {
    values.push_back(RandomValue(&rnd, 100000));
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(Put(key, values[i]).ok());
  }

  // Reopening moves updates to level-0.
  Reopen(&options);
  dbfull()->TEST_CompactRange(0, nullptr, nullptr);

  ASSERT_EQ(NumTableFilesAtLevel(0), 0);
  ASSERT_GT(NumTableFilesAtLevel(1), 1);
  for (int i = 0; i < 80; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_EQ(Get(key), values[i]);
  }
}

TEST_F(DBTest, DeletionMarkersAreCompactedAway) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_TRUE(Delete("foo").ok());

  // Push everything through every level of the tree.
  CompactAllLevels();

  ASSERT_EQ("NOT_FOUND", Get("foo"));
  // After full compaction the deletion marker itself must be gone:
  // scanning the internal state should yield nothing.
  std::unique_ptr<Iterator> iter(dbfull()->TEST_NewInternalIterator());
  iter->SeekToFirst();
  int internal_entries = 0;
  for (; iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    if (parsed.user_key == Slice("foo")) internal_entries++;
  }
  ASSERT_EQ(0, internal_entries);
}

TEST_F(DBTest, OverwritesAreCollapsedByCompaction) {
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(Put("key", test::Cat("v", i)).ok());
  }
  CompactAllLevels();
  ASSERT_EQ("v9", Get("key"));

  std::unique_ptr<Iterator> iter(dbfull()->TEST_NewInternalIterator());
  int versions = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    if (parsed.user_key == Slice("key")) versions++;
  }
  ASSERT_EQ(1, versions);
}

TEST_F(DBTest, Snapshot) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  const Snapshot* s1 = db_->GetSnapshot();
  ASSERT_TRUE(Put("foo", "v2").ok());
  const Snapshot* s2 = db_->GetSnapshot();
  ASSERT_TRUE(Put("foo", "v3").ok());

  ASSERT_EQ("v1", Get("foo", s1));
  ASSERT_EQ("v2", Get("foo", s2));
  ASSERT_EQ("v3", Get("foo"));

  db_->ReleaseSnapshot(s1);
  ASSERT_TRUE(dbfull()->TEST_CompactMemTable().ok());
  ASSERT_EQ("v2", Get("foo", s2));
  ASSERT_EQ("v3", Get("foo"));

  db_->ReleaseSnapshot(s2);
  ASSERT_EQ("v3", Get("foo"));
}

TEST_F(DBTest, HiddenValuesAreRemoved) {
  Random rnd(301);
  std::string big = RandomValue(&rnd, 50000);
  ASSERT_TRUE(Put("foo", big).ok());
  ASSERT_TRUE(Put("pastfoo", "v").ok());
  const Snapshot* snapshot = db_->GetSnapshot();
  ASSERT_TRUE(Put("foo", "tiny").ok());
  // Advance sequence number one more
  ASSERT_TRUE(Put("pastfoo2", "v2").ok());

  ASSERT_TRUE(dbfull()->TEST_CompactMemTable().ok());
  ASSERT_GT(TotalTableFiles(), 0);  // Flush may skip to level 2.

  ASSERT_EQ(big, Get("foo", snapshot));
  db_->ReleaseSnapshot(snapshot);
  CompactAllLevels();
  ASSERT_EQ("tiny", Get("foo"));
}

TEST_F(DBTest, WriteBatchAtomicity) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  batch.Put("c", "3");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  ASSERT_EQ("NOT_FOUND", Get("a"));
  ASSERT_EQ("2", Get("b"));
  ASSERT_EQ("3", Get("c"));
}

TEST_F(DBTest, GetApproximateSizes) {
  Options options = options_;
  options.write_buffer_size = 100000000;
  options.compression = kNoCompression;
  DestroyAndReopen(&options);

  Random rnd(301);
  for (int i = 0; i < 40; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(Put(key, RandomValue(&rnd, 10000)).ok());
  }
  ASSERT_TRUE(dbfull()->TEST_CompactMemTable().ok());

  Range r1("k000000", "k000020");
  Range r2("k000020", "k000040");
  uint64_t size1, size2;
  db_->GetApproximateSizes(&r1, 1, &size1);
  db_->GetApproximateSizes(&r2, 1, &size2);
  // Each half covers ~200KB.
  ASSERT_GT(size1, 100000u);
  ASSERT_GT(size2, 100000u);
  ASSERT_LT(size1, 400000u);
}

TEST_F(DBTest, BloomFilterOptionWorks) {
  Options options = options_;
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  options.filter_policy = policy.get();
  DestroyAndReopen(&options);

  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(Put(test::Cat("key", i), std::to_string(i)).ok());
  }
  ASSERT_TRUE(dbfull()->TEST_CompactMemTable().ok());
  for (int i = 0; i < 1000; i++) {
    ASSERT_EQ(std::to_string(i), Get(test::Cat("key", i)));
  }
  ASSERT_EQ("NOT_FOUND", Get("absent-key"));

  delete db_;
  db_ = nullptr;
  // Must also reopen fine with the same policy.
  Reopen(&options);
  ASSERT_EQ("7", Get("key7"));
}

TEST_F(DBTest, DestroyDBRemovesEverything) {
  ASSERT_TRUE(Put("foo", "v").ok());
  delete db_;
  db_ = nullptr;
  ASSERT_TRUE(DestroyDB(dbname_, options_).ok());

  Options no_create = options_;
  no_create.create_if_missing = false;
  no_create.env = env_.get();
  DB* db = nullptr;
  ASSERT_FALSE(DB::Open(no_create, dbname_, &db).ok());
  ASSERT_EQ(nullptr, db);
  Reopen();
  ASSERT_EQ("NOT_FOUND", Get("foo"));
}

TEST_F(DBTest, SecondOpenOfSameDbIsRejected) {
  // The LOCK file guards the directory: a second DB instance on the
  // same name must fail instead of corrupting state.
  Options opts = options_;
  opts.env = env_.get();
  DB* second = nullptr;
  Status s = DB::Open(opts, dbname_, &second);
  ASSERT_FALSE(s.ok());
  ASSERT_EQ(nullptr, second);
  ASSERT_NE(std::string::npos, s.ToString().find("lock"));

  // Releasing the first instance frees the lock.
  delete db_;
  db_ = nullptr;
  ASSERT_TRUE(DB::Open(opts, dbname_, &second).ok());
  delete second;
  Reopen();
}

TEST_F(DBTest, OpenRespectsErrorIfExists) {
  Options opts = options_;
  opts.env = env_.get();
  opts.error_if_exists = true;
  DB* db = nullptr;
  ASSERT_FALSE(DB::Open(opts, dbname_, &db).ok());
}

// Randomized model check: DB behaviour must match std::map through
// mixed operations, compactions and reopens.
class DBModelTest : public DBTest, public testing::WithParamInterface<int> {};

TEST_F(DBTest, RandomizedAgainstModel) {
  for (int seed = 1; seed <= 4; seed++) {
    Options options = options_;
    options.write_buffer_size = 10000;  // Force frequent flushes.
    DestroyAndReopen(&options);

    Random rnd(seed);
    std::map<std::string, std::string> model;
    const int kOps = 2000;
    for (int i = 0; i < kOps; i++) {
      std::string key = test::Cat("key", rnd.Uniform(200));
      switch (rnd.Uniform(4)) {
        case 0:
        case 1: {  // Put
          std::string value = RandomValue(&rnd, rnd.Uniform(300));
          model[key] = value;
          ASSERT_TRUE(Put(key, value).ok());
          break;
        }
        case 2: {  // Delete
          model.erase(key);
          ASSERT_TRUE(Delete(key).ok());
          break;
        }
        case 3: {  // Get
          auto it = model.find(key);
          std::string got = Get(key);
          if (it == model.end()) {
            ASSERT_EQ("NOT_FOUND", got) << key;
          } else {
            ASSERT_EQ(it->second, got) << key;
          }
          break;
        }
      }
      if (i % 500 == 499) {
        Reopen(&options);
      }
    }

    // Full scan must match the model exactly.
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    auto expected = model.begin();
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      ASSERT_NE(expected, model.end());
      ASSERT_EQ(expected->first, iter->key().ToString());
      ASSERT_EQ(expected->second, iter->value().ToString());
      ++expected;
    }
    ASSERT_EQ(expected, model.end());
  }
}

}  // namespace fcae
