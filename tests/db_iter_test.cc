// DBIter edge cases: deletions under the cursor, overwrites collapsing
// to one visible version, direction switches at boundaries, seeks onto
// deleted keys, and iteration across the memtable/SSTable boundary.

#include <map>
#include <memory>

#include "gtest/gtest.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "table/iterator.h"
#include "test_util.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {

class DbIterTest : public testing::Test {
 public:
  DbIterTest() : env_(NewMemEnv(Env::Default())) {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options, "/dbiter", &db).ok());
    db_.reset(db);
  }

  void Put(const std::string& k, const std::string& v) {
    ASSERT_TRUE(db_->Put(WriteOptions(), k, v).ok());
  }
  void Delete(const std::string& k) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), k).ok());
  }
  void Flush() {
    ASSERT_TRUE(
        reinterpret_cast<DBImpl*>(db_.get())->TEST_CompactMemTable().ok());
  }

  std::unique_ptr<Iterator> Iter() {
    return std::unique_ptr<Iterator>(db_->NewIterator(ReadOptions()));
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbIterTest, SeekLandsPastDeletedKey) {
  Put("a", "1");
  Put("b", "2");
  Put("c", "3");
  Delete("b");

  auto iter = Iter();
  iter->Seek("b");
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("c", iter->key().ToString());
}

TEST_F(DbIterTest, PrevSkipsDeletedRun) {
  Put("a", "1");
  for (int i = 0; i < 20; i++) {
    Put(test::Cat("m", i), "x");
  }
  Put("z", "26");
  for (int i = 0; i < 20; i++) {
    Delete(test::Cat("m", i));
  }

  auto iter = Iter();
  iter->SeekToLast();
  ASSERT_EQ("z", iter->key().ToString());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("a", iter->key().ToString());
  iter->Prev();
  ASSERT_FALSE(iter->Valid());
}

TEST_F(DbIterTest, OverwritesShowNewestOnly) {
  for (int i = 0; i < 10; i++) {
    Put("key", test::Cat("v", i));
  }
  auto iter = Iter();
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ASSERT_EQ("key", iter->key().ToString());
    ASSERT_EQ("v9", iter->value().ToString());
    count++;
  }
  ASSERT_EQ(1, count);
}

TEST_F(DbIterTest, MixedMemtableAndSstableSources) {
  Put("disk1", "d1");
  Put("disk2", "d2");
  Flush();  // These two now live in an SSTable.
  Put("mem1", "m1");
  Delete("disk1");  // Deletion in the memtable shadows the SSTable.

  auto iter = Iter();
  std::string scan;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    scan += iter->key().ToString() + "=" + iter->value().ToString() + ";";
  }
  ASSERT_EQ("disk2=d2;mem1=m1;", scan);

  // And in reverse.
  scan.clear();
  for (iter->SeekToLast(); iter->Valid(); iter->Prev()) {
    scan += iter->key().ToString() + ";";
  }
  ASSERT_EQ("mem1;disk2;", scan);
}

TEST_F(DbIterTest, DirectionSwitchAtFirstAndLast) {
  Put("a", "1");
  Put("b", "2");
  Put("c", "3");

  auto iter = Iter();
  iter->SeekToFirst();
  iter->Prev();
  ASSERT_FALSE(iter->Valid());
  iter->SeekToFirst();
  ASSERT_EQ("a", iter->key().ToString());

  iter->SeekToLast();
  iter->Next();
  ASSERT_FALSE(iter->Valid());
  iter->SeekToLast();
  ASSERT_EQ("c", iter->key().ToString());

  // Zig-zag in the middle.
  iter->Seek("b");
  iter->Next();
  ASSERT_EQ("c", iter->key().ToString());
  iter->Prev();
  ASSERT_EQ("b", iter->key().ToString());
  iter->Prev();
  ASSERT_EQ("a", iter->key().ToString());
  iter->Next();
  ASSERT_EQ("b", iter->key().ToString());
}

TEST_F(DbIterTest, EmptyValueRoundTrips) {
  Put("empty", "");
  Put("full", "x");
  auto iter = Iter();
  iter->Seek("empty");
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("", iter->value().ToString());
}

TEST_F(DbIterTest, RandomizedAgainstModelWithDeletions) {
  Random rnd(77);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; i++) {
    std::string key = test::Cat("k", rnd.Uniform(150));
    if (rnd.OneIn(4)) {
      Delete(key);
      model.erase(key);
    } else {
      std::string value = test::Cat("v", i);
      Put(key, value);
      model[key] = value;
    }
    if (i % 1000 == 999) Flush();
  }

  // Forward.
  auto iter = Iter();
  auto expected = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ASSERT_NE(expected, model.end());
    ASSERT_EQ(expected->first, iter->key().ToString());
    ASSERT_EQ(expected->second, iter->value().ToString());
    ++expected;
  }
  ASSERT_EQ(expected, model.end());

  // Backward.
  auto rexpected = model.rbegin();
  for (iter->SeekToLast(); iter->Valid(); iter->Prev()) {
    ASSERT_NE(rexpected, model.rend());
    ASSERT_EQ(rexpected->first, iter->key().ToString());
    ++rexpected;
  }
  ASSERT_EQ(rexpected, model.rend());

  // Random seeks.
  for (int i = 0; i < 200; i++) {
    std::string target = test::Cat("k", rnd.Uniform(200));
    iter->Seek(target);
    auto lb = model.lower_bound(target);
    if (lb == model.end()) {
      ASSERT_FALSE(iter->Valid()) << target;
    } else {
      ASSERT_TRUE(iter->Valid()) << target;
      ASSERT_EQ(lb->first, iter->key().ToString());
    }
  }
}

}  // namespace fcae
