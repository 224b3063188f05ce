#include "table/merger.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "table/iterator.h"
#include "test_util.h"
#include "util/comparator.h"
#include "util/random.h"

namespace fcae {

namespace {

/// Simple in-memory iterator over a sorted vector of (key, value).
class VectorIterator : public Iterator {
 public:
  explicit VectorIterator(std::vector<std::pair<std::string, std::string>> kv)
      : kv_(std::move(kv)), index_(kv_.size()) {}

  bool Valid() const override { return index_ < kv_.size(); }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override { index_ = kv_.empty() ? 0 : kv_.size() - 1; }
  void Seek(const Slice& target) override {
    index_ = 0;
    while (index_ < kv_.size() &&
           Slice(kv_[index_].first).Compare(target) < 0) {
      index_++;
    }
  }
  void Next() override { index_++; }
  void Prev() override {
    if (index_ == 0) {
      index_ = kv_.size();  // Invalid.
    } else {
      index_--;
    }
  }
  Slice key() const override { return kv_[index_].first; }
  Slice value() const override { return kv_[index_].second; }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
  size_t index_;
};

using KvVec = std::vector<std::pair<std::string, std::string>>;

Iterator* NewVectorIterator(KvVec kv) {
  return new VectorIterator(std::move(kv));
}

}  // namespace

TEST(MergerTest, EmptyChildren) {
  std::unique_ptr<Iterator> iter(
      NewMergingIterator(BytewiseComparator(), nullptr, 0));
  iter->SeekToFirst();
  ASSERT_FALSE(iter->Valid());
}

TEST(MergerTest, SingleChildPassThrough) {
  std::vector<std::pair<std::string, std::string>> kv = {{"a", "1"},
                                                         {"b", "2"}};
  Iterator* child = new VectorIterator(kv);
  std::unique_ptr<Iterator> iter(
      NewMergingIterator(BytewiseComparator(), &child, 1));
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("a", iter->key().ToString());
  iter->Next();
  ASSERT_EQ("b", iter->key().ToString());
  iter->Next();
  ASSERT_FALSE(iter->Valid());
}

TEST(MergerTest, TwoWayMerge) {
  Iterator* children[2];
  children[0] = NewVectorIterator(KvVec{{"a", "1"}, {"c", "3"}, {"e", "5"}});
  children[1] = NewVectorIterator(KvVec{{"b", "2"}, {"d", "4"}, {"f", "6"}});
  std::unique_ptr<Iterator> iter(
      NewMergingIterator(BytewiseComparator(), children, 2));

  std::string keys;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    keys += iter->key().ToString();
  }
  ASSERT_EQ("abcdef", keys);
}

TEST(MergerTest, ReverseMerge) {
  Iterator* children[2];
  children[0] = NewVectorIterator(KvVec{{"a", "1"}, {"c", "3"}});
  children[1] = NewVectorIterator(KvVec{{"b", "2"}, {"d", "4"}});
  std::unique_ptr<Iterator> iter(
      NewMergingIterator(BytewiseComparator(), children, 2));

  std::string keys;
  for (iter->SeekToLast(); iter->Valid(); iter->Prev()) {
    keys += iter->key().ToString();
  }
  ASSERT_EQ("dcba", keys);
}

TEST(MergerTest, SeekLandsOnSmallestUpperBound) {
  Iterator* children[3];
  children[0] = NewVectorIterator(KvVec{{"apple", "1"}, {"melon", "2"}});
  children[1] = NewVectorIterator(KvVec{{"banana", "3"}});
  children[2] = NewVectorIterator(KvVec{{"cherry", "4"}, {"kiwi", "5"}});
  std::unique_ptr<Iterator> iter(
      NewMergingIterator(BytewiseComparator(), children, 3));

  iter->Seek("b");
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("banana", iter->key().ToString());
  iter->Next();
  ASSERT_EQ("cherry", iter->key().ToString());
}

TEST(MergerTest, DirectionSwitch) {
  Iterator* children[2];
  children[0] = NewVectorIterator(KvVec{{"a", "1"}, {"c", "3"}, {"e", "5"}});
  children[1] = NewVectorIterator(KvVec{{"b", "2"}, {"d", "4"}});
  std::unique_ptr<Iterator> iter(
      NewMergingIterator(BytewiseComparator(), children, 2));

  iter->Seek("c");
  ASSERT_EQ("c", iter->key().ToString());
  iter->Prev();
  ASSERT_EQ("b", iter->key().ToString());
  iter->Next();
  ASSERT_EQ("c", iter->key().ToString());
  iter->Next();
  ASSERT_EQ("d", iter->key().ToString());
}

// Property: merging K random sorted vectors equals merging via std::map.
class MergerPropertyTest : public testing::TestWithParam<int> {};

TEST_P(MergerPropertyTest, MatchesModel) {
  Random rnd(GetParam());
  int k = 1 + rnd.Uniform(9);
  std::map<std::string, std::string> model;
  std::vector<Iterator*> children;
  for (int c = 0; c < k; c++) {
    std::map<std::string, std::string> sorted;
    int n = rnd.Uniform(200);
    for (int i = 0; i < n; i++) {
      // Distinct keys per child (suffix c) so the model is exact.
      std::string key = test::Cat("k", rnd.Uniform(10000), "_", c);
      sorted[key] = std::to_string(rnd.Next());
    }
    model.insert(sorted.begin(), sorted.end());
    std::vector<std::pair<std::string, std::string>> kv(sorted.begin(),
                                                        sorted.end());
    children.push_back(new VectorIterator(std::move(kv)));
  }
  std::unique_ptr<Iterator> iter(NewMergingIterator(
      BytewiseComparator(), children.data(), static_cast<int>(k)));

  auto expected = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ASSERT_NE(expected, model.end());
    ASSERT_EQ(expected->first, iter->key().ToString());
    ASSERT_EQ(expected->second, iter->value().ToString());
    ++expected;
  }
  ASSERT_EQ(expected, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergerPropertyTest, testing::Range(1, 13));

}  // namespace fcae
