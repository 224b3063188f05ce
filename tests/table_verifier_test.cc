#include "table/table_verifier.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "host/output_verifier.h"
#include "host/sstable_stager.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/filename.h"
#include "lsm/repair.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "util/comparator.h"
#include "util/filter_policy.h"
#include "util/mem_env.h"

namespace fcae {
namespace {

using Blocks = std::vector<std::vector<std::string>>;
using KeyValues = std::vector<std::pair<std::string, std::string>>;

// Internal key for user key "k%03d", one sequence number per key.
std::string Key(int i) {
  char user_key[16];
  std::snprintf(user_key, sizeof(user_key), "k%03d", i);
  std::string ik;
  AppendInternalKey(&ik, ParsedInternalKey(user_key, 100 + i, kTypeValue));
  return ik;
}

// Three data blocks of four keys each: k000..k011.
Blocks CleanBlocks() {
  Blocks blocks(3);
  for (int i = 0; i < 12; i++) {
    blocks[i / 4].push_back(Key(i));
  }
  return blocks;
}

// Encodes `blocks` as a device output table: the blocks with their
// trailers, one index entry per block holding its last key, and MetaOut
// bounds and count that match. The blocks are built under a bytewise
// comparator so a case can hold keys no correct writer produces.
fpga::DeviceOutputTable Encode(const Blocks& blocks) {
  Options options;
  fpga::DeviceOutputTable table;
  for (const std::vector<std::string>& keys : blocks) {
    BlockBuilder builder(&options);
    for (const std::string& key : keys) {
      builder.Add(key, "v" + key);
    }
    const Slice contents = builder.Finish();
    fpga::OutputIndexEntry entry;
    entry.last_key = keys.back();
    entry.offset = table.data_memory.size();
    entry.size = contents.size();
    table.index_entries.push_back(entry);
    table.data_memory.append(contents.data(), contents.size());
    char trailer[kBlockTrailerSize];
    EncodeBlockTrailer(contents, kNoCompression, trailer);
    table.data_memory.append(trailer, kBlockTrailerSize);
    table.num_entries += keys.size();
  }
  table.smallest_key = blocks.front().front();
  table.largest_key = blocks.back().back();
  return table;
}

fpga::DeviceOutputTable ShortKeyTable() {
  Blocks blocks = CleanBlocks();
  blocks[1][1] = "k005";  // No 8-byte sequence/type trailer.
  return Encode(blocks);
}

// One corruption, and a word that the Corruption message of both byte
// sources must carry.
struct Case {
  const char* name;
  const char* what;
  fpga::DeviceOutputTable (*make)();
};

const Case kCases[] = {
    {"crc flip in a data block", "checksum",
     [] {
       fpga::DeviceOutputTable t = Encode(CleanBlocks());
       t.data_memory[t.index_entries[1].offset + 2] ^= 0x01;
       return t;
     }},
    {"keys out of order across two blocks", "order",
     [] {
       Blocks blocks = CleanBlocks();
       blocks[1][0] = Key(2);  // Block 0 ends at k003.
       return Encode(blocks);
     }},
    {"separator below its block's last key", "separator",
     [] {
       fpga::DeviceOutputTable t = Encode(CleanBlocks());
       t.index_entries[0].last_key = Key(2);  // Block 0 ends at k003.
       return t;
     }},
    {"separator not below the next block's first key", "separator",
     [] {
       fpga::DeviceOutputTable t = Encode(CleanBlocks());
       t.index_entries[0].last_key = Key(4);  // Block 1 starts at k004.
       return t;
     }},
    {"bounds mismatch", "largest",
     [] {
       fpga::DeviceOutputTable t = Encode(CleanBlocks());
       t.largest_key = Key(10);  // The table ends at k011.
       return t;
     }},
    {"short key", "internal key", ShortKeyTable},
    {"bad type byte", "internal key",
     [] {
       Blocks blocks = CleanBlocks();
       std::string& key = blocks[1][1];
       key[key.size() - 8] = 0x7f;  // The mark's low byte is the type.
       return Encode(blocks);
     }},
};

class TableVerifierTest : public testing::Test {
 protected:
  TableVerifierTest()
      : env_(NewMemEnv(Env::Default())), icmp_(BytewiseComparator()) {
    options_.env = env_.get();
    options_.comparator = &icmp_;
  }

  // The device-image byte source.
  Status VerifyImage(const fpga::DeviceOutputTable& table) {
    fpga::DeviceOutput output;
    output.tables.push_back(table);
    host::OutputVerifyStats stats;
    return host::VerifyDeviceOutput(output, icmp_, &stats);
  }

  // The file byte source: the same blocks assembled into a table with no
  // recorded checksum, checked against MetaOut's bounds as manifest facts.
  Status VerifyFile(const fpga::DeviceOutputTable& table,
                    TableVerifyReport* report = nullptr) {
    uint64_t size = 0;
    Status s = host::AssembleTableFile(env_.get(), "/t.ldb", table, &size);
    if (!s.ok()) return s;
    TableVerifySpec spec;
    spec.file_size = size;
    spec.smallest = table.smallest_key;
    spec.largest = table.largest_key;
    return VerifyTable(env_.get(), options_, "/t.ldb", spec, report);
  }

  void ReadTable(const std::string& fname, KeyValues* result) {
    uint64_t size = 0;
    ASSERT_TRUE(env_->GetFileSize(fname, &size).ok());
    RandomAccessFile* raw_file = nullptr;
    ASSERT_TRUE(env_->NewRandomAccessFile(fname, &raw_file).ok());
    std::unique_ptr<RandomAccessFile> file(raw_file);
    Table* raw_table = nullptr;
    ASSERT_TRUE(Table::Open(options_, file.get(), size, &raw_table).ok());
    std::unique_ptr<Table> table(raw_table);
    std::unique_ptr<Iterator> iter(table->NewIterator(ReadOptions()));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      result->emplace_back(iter->key().ToString(), iter->value().ToString());
    }
    ASSERT_TRUE(iter->status().ok());
  }

  // Writes 2000 keys under `prefix` with a bloom filter, as a flush does;
  // no whole-file checksum is recorded anywhere. Blocks are stored
  // uncompressed, so a separator's bytes sit verbatim in the file.
  void WriteFilteredTable(const std::string& fname, const std::string& prefix) {
    std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));
    Options options = options_;
    options.filter_policy = bloom.get();
    options.compression = kNoCompression;
    WritableFile* raw_file = nullptr;
    ASSERT_TRUE(env_->NewWritableFile(fname, &raw_file).ok());
    std::unique_ptr<WritableFile> file(raw_file);
    TableBuilder builder(options, file.get());
    for (int i = 0; i < 2000; i++) {
      char user_key[16];
      std::snprintf(user_key, sizeof(user_key), "%s%04d", prefix.c_str(), i);
      std::string ik;
      AppendInternalKey(&ik, ParsedInternalKey(user_key, i + 1, kTypeValue));
      builder.Add(ik, "value");
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
  }

  // Applies `corrupt` to the footer and the bytes of file `fname`.
  void Rewrite(const std::string& fname,
               const std::function<void(const Footer&, std::string*)>& corrupt) {
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(env_.get(), fname, &bytes).ok());
    Slice footer_input(bytes.data() + bytes.size() - Footer::kEncodedLength,
                       Footer::kEncodedLength);
    Footer footer;
    ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
    corrupt(footer, &bytes);
    ASSERT_TRUE(WriteStringToFile(env_.get(), bytes, fname).ok());
  }

  // Table 5 stays clean. Table 6 has one index separator byte changed,
  // table 7 its first 64 filter bytes zeroed, table 8 a short key in a
  // data block whose CRC is valid.
  void WriteDamagedTables() {
    ASSERT_TRUE(env_->CreateDir(kDb).ok());
    WriteFilteredTable(TableFileName(kDb, 5), "a");
    WriteFilteredTable(TableFileName(kDb, 6), "b");
    WriteFilteredTable(TableFileName(kDb, 7), "c");
    // The index restarts at every entry, so the first separator's bytes
    // follow its three one-byte varint lengths.
    Rewrite(TableFileName(kDb, 6), [](const Footer& footer, std::string* b) {
      char& first = (*b)[footer.index_handle().offset() + 3];
      ASSERT_EQ('b', first);
      first = 'c';
    });
    Rewrite(TableFileName(kDb, 7), [](const Footer& footer, std::string* b) {
      const BlockHandle& h = footer.metaindex_handle();
      BlockContents contents{Slice(b->data() + h.offset(), h.size()), false,
                             false};
      Block metaindex(contents);
      std::unique_ptr<Iterator> iter(
          metaindex.NewIterator(BytewiseComparator()));
      iter->SeekToFirst();
      ASSERT_TRUE(iter->Valid());
      ASSERT_TRUE(iter->key().StartsWith("filter."));
      BlockHandle filter;
      Slice handle_value = iter->value();
      ASSERT_TRUE(filter.DecodeFrom(&handle_value).ok());
      ASSERT_GE(filter.size(), 64u);
      b->replace(filter.offset(), 64, 64, '\0');
    });
    uint64_t size = 0;
    ASSERT_TRUE(host::AssembleTableFile(env_.get(), TableFileName(kDb, 8),
                                        ShortKeyTable(), &size)
                    .ok());
  }

  static constexpr const char* kDb = "/db";
  std::unique_ptr<Env> env_;
  InternalKeyComparator icmp_;
  Options options_;
};

TEST_F(TableVerifierTest, CleanTablePassesBothSources) {
  const fpga::DeviceOutputTable table = Encode(CleanBlocks());
  Status s = VerifyImage(table);
  EXPECT_TRUE(s.ok()) << s.ToString();
  TableVerifyReport report;
  s = VerifyFile(table, &report);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(3u, report.walk.blocks);
  EXPECT_EQ(12u, report.walk.entries);
  EXPECT_EQ(Key(0), report.walk.smallest);
  EXPECT_EQ(Key(11), report.walk.largest);
  EXPECT_EQ(111u, report.walk.max_sequence);
}

TEST_F(TableVerifierTest, EveryCorruptionFailsBothSources) {
  for (const Case& c : kCases) {
    const fpga::DeviceOutputTable table = c.make();
    const std::pair<const char*, Status> results[] = {
        {"device image", VerifyImage(table)}, {"file", VerifyFile(table)}};
    for (const auto& [source, s] : results) {
      SCOPED_TRACE(std::string(c.name) + " via " + source);
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
      EXPECT_NE(std::string::npos, s.ToString().find(c.what)) << s.ToString();
    }
  }
}

TEST_F(TableVerifierTest, SalvageKeepsExactlyTheIntactBlocks) {
  const Blocks blocks = CleanBlocks();
  fpga::DeviceOutputTable table = Encode(blocks);
  table.data_memory[table.index_entries[1].offset + 2] ^= 0x01;
  uint64_t size = 0;
  ASSERT_TRUE(
      host::AssembleTableFile(env_.get(), "/rot.ldb", table, &size).ok());

  SalvageResult result;
  ASSERT_TRUE(SalvageTable(env_.get(), options_, "/rot.ldb", size,
                           "/salvage.ldb", &result)
                  .ok());
  EXPECT_EQ(1u, result.dropped_blocks);
  EXPECT_EQ(2u, result.walk.blocks);
  EXPECT_EQ(8u, result.walk.entries);
  EXPECT_EQ(Key(0), result.walk.smallest);
  EXPECT_EQ(Key(11), result.walk.largest);
  KeyValues expected;
  for (int b : {0, 2}) {
    for (const std::string& key : blocks[b]) {
      expected.emplace_back(key, "v" + key);
    }
  }
  KeyValues salvaged;
  ASSERT_NO_FATAL_FAILURE(ReadTable("/salvage.ldb", &salvaged));
  EXPECT_EQ(expected, salvaged);
}

TEST_F(TableVerifierTest, IndexFilterAndKeyDamageFailVerifyTable) {
  ASSERT_NO_FATAL_FAILURE(WriteDamagedTables());
  Status s = VerifyTable(env_.get(), options_, TableFileName(kDb, 5),
                         TableVerifySpec(), nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (uint64_t number : {6, 7, 8}) {
    s = VerifyTable(env_.get(), options_, TableFileName(kDb, number),
                    TableVerifySpec(), nullptr);
    EXPECT_TRUE(s.IsCorruption()) << "table " << number << ": " << s.ToString();
  }
}

TEST_F(TableVerifierTest, RepairDbArchivesDamagedTables) {
  ASSERT_NO_FATAL_FAILURE(WriteDamagedTables());
  Options db_options;
  db_options.env = env_.get();
  ASSERT_TRUE(RepairDB(kDb, db_options).ok());

  for (uint64_t number : {6, 7, 8}) {
    const std::string name = TableFileName(kDb, number);
    EXPECT_FALSE(env_->FileExists(name)) << name;
    EXPECT_TRUE(env_->FileExists(std::string(kDb) + "/lost" +
                                 name.substr(name.rfind('/'))))
        << name;
  }
  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(db_options, kDb, &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "a1999", &value).ok());
  EXPECT_EQ("value", value);
  EXPECT_TRUE(db->Get(ReadOptions(), "b0000", &value).IsNotFound());
}

}  // namespace
}  // namespace fcae
