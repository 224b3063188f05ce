#include "host/cpu_compactor.h"

#include <memory>
#include <string>

#include "compress/snappy.h"
#include "fpga/block_parse.h"
#include "lsm/dbformat.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "util/comparator.h"
#include "util/env.h"
#include "util/options.h"

namespace fcae {
namespace host {

namespace {

/// A lazy cursor over one staged input: decodes one data block at a
/// time, exactly the access pattern of LevelDB's table iterator over a
/// memory-backed file.
class ImageCursor {
 public:
  explicit ImageCursor(const fpga::DeviceInput* input) : input_(input) {}

  Status Init() { return Advance(); }

  bool Valid() const { return valid_; }
  const std::string& key() const { return entries_[pos_].key; }
  const std::string& value() const { return entries_[pos_].value; }

  Status Next() {
    pos_++;
    if (pos_ < entries_.size()) {
      return Status::OK();
    }
    return Advance();
  }

 private:
  /// Loads entries from the next data block (walking index blocks as
  /// needed).
  Status Advance() {
    valid_ = false;
    while (true) {
      if (next_handle_ < handles_.size()) {
        const auto [offset, size] = handles_[next_handle_++];
        const uint64_t stored = size + kBlockTrailerSize;
        const uint64_t start = data_base_ + offset;
        if (start + stored > input_->data_memory.size()) {
          return Status::Corruption("data block outside staged memory");
        }
        std::string contents;
        Status s = fpga::DecodeStoredBlock(
            Slice(input_->data_memory.data() + start,
                  static_cast<size_t>(stored)),
            /*verify_checksum=*/true, &contents);
        if (!s.ok()) return s;
        entries_.clear();
        s = fpga::ParseBlockEntries(contents, &entries_);
        if (!s.ok()) return s;
        pos_ = 0;
        if (entries_.empty()) continue;
        valid_ = true;
        return Status::OK();
      }
      // Next SSTable's index block.
      if (next_sstable_ >= input_->sstables.size()) {
        return Status::OK();  // Exhausted.
      }
      const fpga::SstableDescriptor& desc =
          input_->sstables[next_sstable_++];
      data_base_ = desc.data_offset;
      if (desc.index_offset + desc.index_size >
          input_->index_memory.size()) {
        return Status::Corruption("index block outside staged memory");
      }
      std::string contents;
      Status s = fpga::DecodeStoredBlock(
          Slice(input_->index_memory.data() + desc.index_offset,
                static_cast<size_t>(desc.index_size)),
          /*verify_checksum=*/true, &contents);
      if (!s.ok()) return s;
      std::vector<fpga::ParsedEntry> index_entries;
      s = fpga::ParseBlockEntries(contents, &index_entries);
      if (!s.ok()) return s;
      handles_.clear();
      next_handle_ = 0;
      for (const fpga::ParsedEntry& e : index_entries) {
        Slice handle_input(e.value);
        BlockHandle handle;
        if (!handle.DecodeFrom(&handle_input).ok()) {
          return Status::Corruption("bad handle in staged index block");
        }
        handles_.emplace_back(handle.offset(), handle.size());
      }
    }
  }

  const fpga::DeviceInput* input_;
  size_t next_sstable_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> handles_;
  size_t next_handle_ = 0;
  uint64_t data_base_ = 0;
  std::vector<fpga::ParsedEntry> entries_;
  size_t pos_ = 0;
  bool valid_ = false;
};

/// Output-side builder mirroring the engine's encoder (blocks + index
/// entries + table rollover) so the two paths emit identical tables.
class ImageTableWriter {
 public:
  ImageTableWriter(const CpuCompactorOptions& options,
                   fpga::DeviceOutput* output)
      : options_(options),
        output_(output),
        icmp_(BytewiseComparator()) {
    block_options_.comparator = &icmp_;
    block_options_.block_restart_interval = 16;
    builder_ = std::make_unique<BlockBuilder>(&block_options_);
  }

  void Add(const std::string& key, const std::string& value) {
    if (!table_open_) {
      table_open_ = true;
      table_.smallest_key = key;
    }
    last_key_ = key;
    table_.largest_key = key;
    table_.num_entries++;
    builder_->Add(key, value);
    if (builder_->CurrentSizeEstimate() >= options_.data_block_threshold) {
      FlushBlock();
      if (table_.data_memory.size() >= options_.sstable_threshold) {
        FinishTable();
      }
    }
  }

  void Finalize() {
    FlushBlock();
    FinishTable();
  }

 private:
  void FlushBlock() {
    if (builder_->empty()) return;
    Slice raw = builder_->Finish();
    Slice contents;
    CompressionType type = kNoCompression;
    if (options_.compress_output) {
      snappy::Compress(raw.data(), raw.size(), &scratch_);
      if (scratch_.size() < raw.size() - (raw.size() / 8u)) {
        contents = scratch_;
        type = kSnappyCompression;
      } else {
        contents = raw;
      }
    } else {
      contents = raw;
    }

    fpga::OutputIndexEntry entry;
    entry.last_key = last_key_;
    entry.offset = table_.data_memory.size();
    entry.size = contents.size();
    table_.data_memory.append(contents.data(), contents.size());
    char trailer[kBlockTrailerSize];
    EncodeBlockTrailer(contents, type, trailer);
    table_.data_memory.append(trailer, kBlockTrailerSize);
    table_.index_entries.push_back(std::move(entry));
    builder_->Reset();
  }

  void FinishTable() {
    if (!table_open_) return;
    output_->tables.push_back(std::move(table_));
    table_ = fpga::DeviceOutputTable();
    table_open_ = false;
  }

  const CpuCompactorOptions& options_;
  fpga::DeviceOutput* output_;
  InternalKeyComparator icmp_;
  Options block_options_;
  std::unique_ptr<BlockBuilder> builder_;
  fpga::DeviceOutputTable table_;
  bool table_open_ = false;
  std::string last_key_;
  std::string scratch_;
};

int CompareInternalKeys(const std::string& a, const std::string& b) {
  Slice ua = ExtractUserKey(a);
  Slice ub = ExtractUserKey(b);
  int r = ua.Compare(ub);
  if (r != 0) return r;
  uint64_t ma = ExtractMark(a);
  uint64_t mb = ExtractMark(b);
  if (ma > mb) return -1;
  if (ma < mb) return +1;
  return 0;
}

}  // namespace

Status CpuCompactImages(const std::vector<const fpga::DeviceInput*>& inputs,
                        const CpuCompactorOptions& options,
                        fpga::DeviceOutput* output, CpuCompactStats* stats) {
  Env* env = Env::Default();
  const uint64_t start_micros = env->NowMicros();

  std::vector<std::unique_ptr<ImageCursor>> cursors;
  for (const fpga::DeviceInput* input : inputs) {
    stats->input_bytes += input->TotalBytes();
    auto cursor = std::make_unique<ImageCursor>(input);
    Status s = cursor->Init();
    if (!s.ok()) return s;
    cursors.push_back(std::move(cursor));
  }

  ImageTableWriter writer(options, output);

  // Validity Check state (identical rule to fpga::Comparer::CheckDrop).
  std::string current_user_key;
  bool has_current_user_key = false;
  uint64_t last_sequence_for_key = kMaxSequenceNumber;

  while (true) {
    // Select the smallest head (linear scan: the CPU analogue of the
    // compare tree; N is tiny).
    int best = -1;
    for (size_t i = 0; i < cursors.size(); i++) {
      if (!cursors[i]->Valid()) continue;
      if (best < 0 ||
          CompareInternalKeys(cursors[i]->key(), cursors[best]->key()) < 0) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;

    const std::string& key = cursors[best]->key();
    stats->records_in++;

    bool drop = false;
    ParsedInternalKey parsed;
    if (ParseInternalKey(key, &parsed)) {
      if (!has_current_user_key ||
          parsed.user_key.Compare(Slice(current_user_key)) != 0) {
        current_user_key.assign(parsed.user_key.data(),
                                parsed.user_key.size());
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
      }
      if (last_sequence_for_key <= options.smallest_snapshot) {
        drop = true;
      } else if (parsed.type == kTypeDeletion &&
                 parsed.sequence <= options.smallest_snapshot &&
                 options.drop_deletions) {
        drop = true;
      }
      last_sequence_for_key = parsed.sequence;
    } else {
      has_current_user_key = false;
      last_sequence_for_key = kMaxSequenceNumber;
    }

    if (drop) {
      stats->records_dropped++;
    } else {
      writer.Add(key, cursors[best]->value());
      stats->records_out++;
    }

    Status s = cursors[best]->Next();
    if (!s.ok()) return s;
  }

  writer.Finalize();

  for (const fpga::DeviceOutputTable& t : output->tables) {
    stats->output_bytes += t.data_memory.size();
  }
  stats->micros = static_cast<double>(env->NowMicros() - start_micros);
  return Status::OK();
}

}  // namespace host
}  // namespace fcae
