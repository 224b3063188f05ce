#include "host/sstable_stager.h"

#include <cstring>
#include <memory>

#include "host/fork_join.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "util/comparator.h"
#include "util/env.h"
#include "util/file_checksum.h"
#include "util/options.h"
#include "util/rate_limiter.h"
#include "lsm/dbformat.h"
#include "table/block.h"
#include "util/filter_policy.h"

namespace fcae {
namespace host {

namespace {

// Internal key = user key + 8-byte mark ((sequence << 8) | type).
Slice UserKeyOf(const Slice& internal_key) {
  return internal_key.size() >= 8
             ? Slice(internal_key.data(), internal_key.size() - 8)
             : internal_key;
}

// Appends a stored-format block (contents + kNoCompression trailer with
// the masked CRC) to *dst, the representation the engine's block decode
// path expects.
void AppendStoredBlock(const Slice& contents, std::string* dst) {
  dst->append(contents.data(), contents.size());
  char trailer[kBlockTrailerSize];
  EncodeBlockTrailer(contents, kNoCompression, trailer);
  dst->append(trailer, kBlockTrailerSize);
}

// One table's place in a run image, planned before any data byte is
// read, so the regions of a job's tables can be copied in parallel.
struct TablePlan {
  std::unique_ptr<RandomAccessFile> file;  // Null: the table stages nothing.
  std::string fname;
  uint64_t region_start = 0;  // File offset of the staged data region.
  fpga::DeviceInput* input = nullptr;
  size_t sstable = 0;  // Its descriptor in input->sstables.
};

// End of the last data region planned into a run image.
uint64_t PlannedEnd(const fpga::DeviceInput& input) {
  if (input.sstables.empty()) return 0;
  const fpga::SstableDescriptor& last = input.sstables.back();
  return last.data_offset + last.data_size;
}

// Plans `fname` as the next table of `input`: reads its footer and index,
// appends the (possibly trimmed) index to the index memory and a
// descriptor whose data region follows the run's previous table. Reads no
// data byte: the caller sizes the data memory to PlannedEnd once every
// table of the run is planned.
Status PlanTable(Env* env, const std::string& fname,
                 fpga::DeviceInput* input, const fpga::KeyBounds* bounds,
                 TablePlan* plan) {
  uint64_t file_size;
  Status s = env->GetFileSize(fname, &file_size);
  if (!s.ok()) return s;
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file too short to be an sstable", fname);
  }

  RandomAccessFile* raw_file;
  s = env->NewRandomAccessFile(fname, &raw_file);
  if (!s.ok()) return s;
  std::unique_ptr<RandomAccessFile> file(raw_file);

  // Footer -> index block handle + metaindex handle.
  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  s = file->Read(file_size - Footer::kEncodedLength, Footer::kEncodedLength,
                 &footer_input, footer_space);
  if (!s.ok()) return s;
  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) return s;

  const BlockHandle& index_handle = footer.index_handle();
  const uint64_t index_stored_size = index_handle.size() + kBlockTrailerSize;

  // The data-block region is everything before the first meta block
  // (blocks after it — filter, metaindex, index — are never addressed by
  // data BlockHandles, so staging up to the metaindex offset is enough;
  // any filter block inside is simply dead bytes the engine never
  // fetches).
  const uint64_t data_region_size = footer.metaindex_handle().offset();

  // Read the index block (as stored, trailer included): staged verbatim
  // on the unbounded path, parsed for block selection on the bounded
  // one.
  std::string index_stored(index_stored_size, '\0');
  {
    Slice result;
    s = file->Read(index_handle.offset(), index_stored_size, &result,
                   index_stored.data());
    if (!s.ok()) return s;
    if (result.size() != index_stored_size) {
      return Status::Corruption("truncated index block", fname);
    }
    if (result.data() != index_stored.data()) {
      index_stored.assign(result.data(), result.size());
    }
  }

  uint64_t region_start = 0;
  uint64_t region_end = data_region_size;
  if (bounds != nullptr && bounds->active()) {
    // Bounded staging: walk the index and keep the contiguous run of
    // data blocks that can hold user keys in (lower, upper]. Block i
    // holds the keys in (last_key[i-1], last_key[i]], so it is still
    // short of the shard while its own last user key is <= lower, and
    // past it once the *previous* block's last user key is > upper.
    BlockContents index_contents;
    s = DecodeBlock(Slice(index_stored), /*verify_checksum=*/true,
                    &index_contents);
    if (!s.ok()) return s;
    Block index(index_contents);
    InternalKeyComparator icmp(BytewiseComparator());
    std::unique_ptr<Iterator> iter(index.NewIterator(&icmp));

    Options index_options;
    index_options.comparator = &icmp;
    index_options.block_restart_interval = 1;
    BlockBuilder trimmed_index(&index_options);
    bool any = false;
    bool past_upper = false;  // The previous block ends above the shard.
    for (iter->SeekToFirst(); iter->Valid() && !past_upper; iter->Next()) {
      const Slice user_key = UserKeyOf(iter->key());
      past_upper =
          bounds->has_upper && user_key.Compare(Slice(bounds->upper)) > 0;
      if (bounds->has_lower && user_key.Compare(Slice(bounds->lower)) <= 0) {
        continue;  // Whole block at or below the exclusive lower bound.
      }
      Slice handle_input = iter->value();
      BlockHandle handle;
      s = handle.DecodeFrom(&handle_input);
      if (!s.ok()) return s;
      if (handle.offset() + handle.size() + kBlockTrailerSize >
          data_region_size) {
        return Status::Corruption("index entry out of range", fname);
      }
      if (!any) {
        region_start = handle.offset();
        any = true;
      }
      region_end = handle.offset() + handle.size() + kBlockTrailerSize;
      // Handles are rebased to the trimmed region so the staged index
      // addresses the staged bytes exactly like an untrimmed one does.
      BlockHandle rebased;
      rebased.set_offset(handle.offset() - region_start);
      rebased.set_size(handle.size());
      std::string handle_encoding;
      rebased.EncodeTo(&handle_encoding);
      trimmed_index.Add(iter->key(), handle_encoding);
    }
    if (!iter->status().ok()) return iter->status();
    if (!any) {
      // Every data block lies outside the shard: nothing to stage.
      return Status::OK();
    }
    index_stored.clear();
    AppendStoredBlock(trimmed_index.Finish(), &index_stored);
  }

  fpga::SstableDescriptor desc;
  desc.index_offset = input->index_memory.size();
  desc.index_size = index_stored.size();
  desc.data_offset = PlannedEnd(*input);
  desc.data_size = region_end - region_start;

  input->index_memory.append(index_stored);
  plan->file = std::move(file);
  plan->fname = fname;
  plan->region_start = region_start;
  plan->input = input;
  plan->sstable = input->sstables.size();
  input->sstables.push_back(desc);
  return Status::OK();
}

// Reads one planned table's (possibly trimmed) data region verbatim,
// straight into its place in the sized run image. Plans of one image
// write disjoint bytes, so they may run on different threads.
Status CopyRegion(const TablePlan& plan) {
  const fpga::SstableDescriptor& desc = plan.input->sstables[plan.sstable];
  char* dst = plan.input->data_memory.data() + desc.data_offset;
  Slice result;
  Status s = plan.file->Read(plan.region_start, desc.data_size, &result, dst);
  if (!s.ok()) return s;
  if (result.size() != desc.data_size) {
    return Status::Corruption("truncated data region", plan.fname);
  }
  if (result.data() != dst) {
    std::memcpy(dst, result.data(), result.size());
  }
  return Status::OK();
}

}  // namespace

Status SstableStager::AddTable(const std::string& fname,
                               fpga::DeviceInput* input,
                               const fpga::KeyBounds* bounds) {
  TablePlan plan;
  Status s = PlanTable(env_, fname, input, bounds, &plan);
  if (!s.ok() || plan.file == nullptr) return s;
  input->data_memory.resize(PlannedEnd(*input));
  return CopyRegion(plan);
}

Status SstableStager::StageRuns(
    const std::vector<std::vector<std::string>>& runs,
    const fpga::KeyBounds* bounds, std::vector<fpga::DeviceInput>* inputs) {
  inputs->clear();
  inputs->resize(runs.size());
  std::vector<TablePlan> plans;
  for (size_t r = 0; r < runs.size(); r++) {
    for (const std::string& fname : runs[r]) {
      TablePlan plan;
      Status s = PlanTable(env_, fname, &(*inputs)[r], bounds, &plan);
      if (!s.ok()) return s;
      if (plan.file != nullptr) plans.push_back(std::move(plan));
    }
  }
  for (fpga::DeviceInput& input : *inputs) {
    input.data_memory.resize(PlannedEnd(input));
  }
  std::vector<Status> results(plans.size());
  ForkJoin(plans.size(),
           [&](size_t i) { results[i] = CopyRegion(plans[i]); });
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status AssembleTableFile(Env* env, const std::string& fname,
                         const fpga::DeviceOutputTable& table,
                         uint64_t* file_size,
                         const FilterPolicy* filter_policy,
                         const Slice& filter_block,
                         RateLimiter* rate_limiter,
                         uint32_t* file_checksum) {
  WritableFile* raw_file;
  Status s = env->NewWritableFile(fname, &raw_file);
  if (!s.ok()) return s;
  if (rate_limiter != nullptr) {
    // Assembly writeback is compaction output: low-priority lane, same
    // as the CPU executor's, so flushes keep absolute priority.
    raw_file = new RateLimitedWritableFile(raw_file, rate_limiter,
                                           RateLimiter::Priority::kLow);
  }
  // Outermost so the captured crc covers the full assembled image.
  ChecksumWritableFile* checksum_file = new ChecksumWritableFile(raw_file);
  std::unique_ptr<WritableFile> file(checksum_file);

  uint64_t offset = 0;
  auto append_raw_block = [&](const Slice& contents,
                              BlockHandle* handle) -> Status {
    handle->set_offset(offset);
    handle->set_size(contents.size());
    Status as = file->Append(contents);
    if (!as.ok()) return as;
    char trailer[kBlockTrailerSize];
    EncodeBlockTrailer(contents, kNoCompression, trailer);
    as = file->Append(Slice(trailer, kBlockTrailerSize));
    if (!as.ok()) return as;
    offset += contents.size() + kBlockTrailerSize;
    return Status::OK();
  };

  // 1. Data blocks exactly as the engine produced them (each already
  //    carries its own trailer).
  s = file->Append(table.data_memory);
  if (!s.ok()) return s;
  offset += table.data_memory.size();

  // Index separators are internal keys; the builder's ordering assert
  // must use internal-key order (user key asc, mark desc).
  static const InternalKeyComparator* icmp =
      new InternalKeyComparator(BytewiseComparator());
  Options block_options;
  block_options.comparator = icmp;

  // 2. Optional filter block, built by the verify walk of this table.
  BlockHandle filter_handle;
  const bool has_filter = filter_policy != nullptr;
  if (has_filter) {
    s = append_raw_block(filter_block, &filter_handle);
    if (!s.ok()) return s;
  }

  // 3. Metaindex block (maps "filter.<Name>" to the filter block).
  BlockHandle metaindex_handle;
  {
    Options meta_options = block_options;
    BlockBuilder metaindex_block(&meta_options);
    if (has_filter) {
      std::string key = "filter.";
      key.append(filter_policy->Name());
      std::string handle_encoding;
      filter_handle.EncodeTo(&handle_encoding);
      metaindex_block.Add(key, handle_encoding);
    }
    s = append_raw_block(metaindex_block.Finish(), &metaindex_handle);
    if (!s.ok()) return s;
  }

  // 4. Index block from the engine's (last_key, handle) entries. The
  //    engine emits the blocks' exact last keys as separators; with
  //    restart interval 1 the index is binary searchable like any
  //    TableBuilder-produced index.
  BlockHandle index_handle;
  {
    Options index_options = block_options;
    index_options.block_restart_interval = 1;
    BlockBuilder index_block(&index_options);
    for (const fpga::OutputIndexEntry& e : table.index_entries) {
      BlockHandle h;
      h.set_offset(e.offset);
      h.set_size(e.size);
      std::string handle_encoding;
      h.EncodeTo(&handle_encoding);
      index_block.Add(e.last_key, handle_encoding);
    }
    s = append_raw_block(index_block.Finish(), &index_handle);
    if (!s.ok()) return s;
  }

  // 5. Footer.
  {
    Footer footer;
    footer.set_metaindex_handle(metaindex_handle);
    footer.set_index_handle(index_handle);
    std::string footer_encoding;
    footer.EncodeTo(&footer_encoding);
    s = file->Append(footer_encoding);
    if (!s.ok()) return s;
    offset += footer_encoding.size();
  }

  s = file->Sync();
  if (s.ok()) {
    s = file->Close();
  }
  *file_size = offset;
  if (file_checksum != nullptr) {
    *file_checksum = checksum_file->checksum();
  }
  return s;
}

}  // namespace host
}  // namespace fcae
