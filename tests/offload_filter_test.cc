// Offloaded compactions with a Bloom filter configured: the host must
// rebuild filter blocks for the device-produced tables, so point reads
// keep their filter protection after an offloaded compaction.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "lsm/filename.h"
#include "table/block.h"
#include "table/format.h"
#include "table/table.h"
#include "table/iterator.h"
#include "test_util.h"
#include "util/file_checksum.h"
#include "util/filter_policy.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {
namespace host {

TEST(OffloadFilterTest, AssembledTablesCarryFilterBlocks) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));

  fpga::EngineConfig config;
  config.num_inputs = 9;
  config.input_width = 8;
  config.value_width = 8;
  DeviceSet devices(config, /*num_cards=*/1);
  FcaeCompactionExecutor executor(&devices);

  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.write_buffer_size = 64 * 1024;
  options.filter_policy = bloom.get();
  options.compaction_executor = &executor;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/filtered", &raw).ok());
  std::unique_ptr<DB> db(raw);

  WriteOptions wo;
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(
        db->Put(wo, "key" + std::to_string(i), std::string(100, 'v')).ok());
  }
  auto* impl = reinterpret_cast<DBImpl*>(db.get());
  impl->TEST_CompactMemTable().IgnoreError();  // device env in play
  for (int level = 0; level < kNumLevels - 1; level++) {
    impl->TEST_CompactRange(level, nullptr, nullptr);
  }
  ASSERT_GT(devices.device(0)->kernels_launched(), 0u);

  // Reads still work (filter must not produce false negatives).
  std::string value;
  for (int i = 0; i < 5000; i += 37) {
    ASSERT_TRUE(
        db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
        << i;
  }
  ASSERT_TRUE(
      db->Get(ReadOptions(), "absent-key", &value).IsNotFound());

  // Inspect the live table files directly: each must expose a filter
  // block through the metaindex (ReadMeta finds "filter.<name>").
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("/filtered", &children).ok());
  int tables_checked = 0;
  InternalKeyComparator icmp(BytewiseComparator());
  InternalFilterPolicy ipolicy(bloom.get());
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type) ||
        type != FileType::kTableFile) {
      continue;
    }
    std::string fname = "/filtered/" + child;
    uint64_t size;
    ASSERT_TRUE(env->GetFileSize(fname, &size).ok());
    RandomAccessFile* file;
    ASSERT_TRUE(env->NewRandomAccessFile(fname, &file).ok());
    std::unique_ptr<RandomAccessFile> guard(file);

    // Structural check: the metaindex block must name the filter.
    char footer_space[Footer::kEncodedLength];
    Slice footer_input;
    ASSERT_TRUE(file->Read(size - Footer::kEncodedLength,
                           Footer::kEncodedLength, &footer_input,
                           footer_space)
                    .ok());
    Footer footer;
    ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
    BlockContents metaindex_contents;
    ASSERT_TRUE(ReadBlock(file, ReadOptions(), footer.metaindex_handle(),
                          &metaindex_contents)
                    .ok());
    Block metaindex(metaindex_contents);
    std::unique_ptr<Iterator> meta_iter(
        metaindex.NewIterator(BytewiseComparator()));
    bool has_filter_entry = false;
    for (meta_iter->SeekToFirst(); meta_iter->Valid(); meta_iter->Next()) {
      if (meta_iter->key().StartsWith("filter.")) {
        has_filter_entry = true;
      }
    }
    ASSERT_TRUE(has_filter_entry) << fname;

    // Behavioural check: present keys are found through the filter.
    Options read_options;
    read_options.env = env.get();
    read_options.comparator = &icmp;
    read_options.filter_policy = &ipolicy;
    Table* table;
    ASSERT_TRUE(Table::Open(read_options, file, size, &table).ok());
    std::unique_ptr<Table> tguard(table);
    LookupKey probe("key37", kMaxSequenceNumber);
    struct Ctx {
      bool found = false;
    } ctx;
    ASSERT_TRUE(table
                    ->InternalGet(ReadOptions(), probe.internal_key(), &ctx,
                                  [](void* arg, const Slice&, const Slice&) {
                                    static_cast<Ctx*>(arg)->found = true;
                                  })
                    .ok());
    tables_checked++;
  }
  ASSERT_GT(tables_checked, 0);
}

// The bytes an offloaded compaction with a bloom policy assembles, pinned
// as whole-file crc32c values recorded before the filter blocks moved
// into the verify walk and assembly fanned out over the cores. One
// memtable holds every write, so no background flush or compaction runs
// while the test writes, and the last manual compaction writes every
// table the test reads, split at a 64 KiB threshold.
TEST(OffloadFilterTest, AssembledBytesArePinned) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));

  fpga::EngineConfig config;
  config.num_inputs = 9;
  config.input_width = 8;
  config.value_width = 8;
  config.sstable_threshold = 64 * 1024;
  DeviceSet devices(config, /*num_cards=*/1);
  FcaeCompactionExecutor executor(&devices);

  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.write_buffer_size = 4 << 20;
  options.filter_policy = bloom.get();
  options.compaction_executor = &executor;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/pinned", &raw).ok());
  std::unique_ptr<DB> db(raw);
  Random rnd(301);
  for (int i = 0; i < 5000; i++) {
    std::string value(100, ' ');
    for (char& c : value) c = static_cast<char>('a' + rnd.Uniform(26));
    ASSERT_TRUE(db->Put(WriteOptions(), test::Cat("key", i), value).ok());
  }
  auto* impl = reinterpret_cast<DBImpl*>(db.get());
  ASSERT_TRUE(impl->TEST_CompactMemTable().ok());
  for (int level = 0; level < kNumLevels - 1; level++) {
    impl->TEST_CompactRange(level, nullptr, nullptr);
  }
  ASSERT_GT(devices.device(0)->kernels_launched(), 0u);

  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("/pinned", &children).ok());
  std::vector<std::pair<uint64_t, std::string>> tables;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kTableFile) {
      tables.emplace_back(number, "/pinned/" + child);
    }
  }
  std::sort(tables.begin(), tables.end());
  std::vector<uint32_t> crcs;
  for (const auto& [number, fname] : tables) {
    uint32_t crc = 0;
    uint64_t bytes = 0;
    ASSERT_TRUE(ComputeFileChecksum(env.get(), fname, nullptr, &crc, &bytes)
                    .ok());
    crcs.push_back(crc);
  }
  const std::vector<uint32_t> expected = {
      3590229254u, 1136134877u, 1277142176u, 2393515498u, 2239564244u,
      4053259609u, 3850062498u, 1817856356u, 3305182354u};
  EXPECT_EQ(expected, crcs);
}

}  // namespace host
}  // namespace fcae
