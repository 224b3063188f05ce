#ifndef FCAE_TESTS_FPGA_TEST_UTIL_H_
#define FCAE_TESTS_FPGA_TEST_UTIL_H_

// Shared helpers for FPGA-engine and host-offload tests: build real
// SSTable files from internal-key records and stage them into device
// input images.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fpga/device_memory.h"
#include "host/sstable_stager.h"
#include "lsm/dbformat.h"
#include "table/block.h"
#include "table/format.h"
#include "table/table_builder.h"
#include "util/env.h"
#include "util/options.h"

namespace fcae {

/// A "no snapshots held" smallest_snapshot for tests: larger than every
/// test sequence number but — unlike kMaxSequenceNumber — a value the DB
/// could legitimately pass (smallest_snapshot is always <= LastSequence,
/// which is < kMaxSequenceNumber, so the first occurrence of a user key
/// is never dropped).
constexpr uint64_t kNoSnapshot = 1ull << 40;

namespace fpga_test {

struct TestKv {
  std::string user_key;
  uint64_t sequence;
  ValueType type;
  std::string value;

  std::string InternalKey() const {
    std::string ik;
    AppendInternalKey(&ik, ParsedInternalKey(user_key, sequence, type));
    return ik;
  }
};

/// Writes `records` (already in internal-key order) as one SSTable file.
inline Status WriteSstable(Env* env, const Options& base_options,
                           const std::string& fname,
                           const std::vector<TestKv>& records) {
  static const InternalKeyComparator* icmp =
      new InternalKeyComparator(BytewiseComparator());
  Options options = base_options;
  options.comparator = icmp;
  options.env = env;

  WritableFile* file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  {
    TableBuilder builder(options, file);
    for (const TestKv& kv : records) {
      builder.Add(kv.InternalKey(), kv.value);
    }
    s = builder.Finish();
  }
  if (s.ok()) s = file->Close();
  delete file;
  return s;
}

/// Builds one DeviceInput from a run of record vectors (one SSTable per
/// vector). File names are synthesized under /fpga_test.
inline Status BuildDeviceInput(Env* env, const Options& options,
                               const std::vector<std::vector<TestKv>>& run,
                               int input_no, fpga::DeviceInput* input) {
  host::SstableStager stager(env);
  for (size_t t = 0; t < run.size(); t++) {
    std::string fname = "/fpga_test_input" + std::to_string(input_no) + "_" +
                        std::to_string(t) + ".ldb";
    Status s = WriteSstable(env, options, fname, run[t]);
    if (!s.ok()) return s;
    s = stager.AddTable(fname, input);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

/// Flattens a DeviceOutput into (internal_key -> value) pairs in order,
/// by decoding every produced block.
inline Status FlattenOutput(const fpga::DeviceOutput& output,
                            std::vector<std::pair<std::string, std::string>>*
                                entries) {
  for (const fpga::DeviceOutputTable& table : output.tables) {
    for (const fpga::OutputIndexEntry& e : table.index_entries) {
      BlockHandle handle;
      handle.set_offset(e.offset);
      handle.set_size(e.size);
      std::unique_ptr<Iterator> iter(NewImageBlockIterator(
          table.data_memory, handle, BytewiseComparator()));
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        entries->emplace_back(iter->key().ToString(),
                              iter->value().ToString());
      }
      if (!iter->status().ok()) return iter->status();
    }
  }
  return Status::OK();
}

/// Generates `n` records with keys "prefix%08d" spaced by `stride`,
/// fixed-size values.
inline std::vector<TestKv> MakeRun(const std::string& prefix, int start,
                                   int n, int stride, uint64_t seq_base,
                                   size_t value_len,
                                   ValueType type = kTypeValue) {
  std::vector<TestKv> result;
  result.reserve(n);
  for (int i = 0; i < n; i++) {
    TestKv kv;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%08d", prefix.c_str(),
                  start + i * stride);
    kv.user_key = buf;
    kv.sequence = seq_base + i;
    kv.type = type;
    kv.value = std::string(value_len, static_cast<char>('a' + (i % 26)));
    result.push_back(std::move(kv));
  }
  return result;
}

}  // namespace fpga_test
}  // namespace fcae

#endif  // FCAE_TESTS_FPGA_TEST_UTIL_H_
