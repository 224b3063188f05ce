#include "table/table_verifier.h"

#include <algorithm>
#include <memory>

#include "lsm/dbformat.h"
#include "table/block.h"
#include "table/filter_block.h"
#include "table/table_builder.h"
#include "util/comparator.h"
#include "util/file_checksum.h"

namespace fcae {

Status BlockWalker::ReadBlock(const BlockHandle& handle,
                              BlockContents* contents) const {
  if (file_ != nullptr) {
    ReadOptions options;
    options.verify_checksums = true;
    return fcae::ReadBlock(file_, options, handle, contents);
  }
  return ReadImageBlock(image_, handle, contents);
}

Status BlockWalker::NextBlock(
    const Slice& separator, const BlockHandle& handle,
    std::vector<std::pair<std::string, std::string>>* entries,
    FilterBlockBuilder* filter) {
  if (entries != nullptr) {
    entries->clear();
  }
  // Parse before comparing: the comparator reads a key's last 8 bytes.
  ParsedInternalKey parsed;
  if (!ParseInternalKey(separator, &parsed)) {
    return Status::Corruption("index separator is not an internal key");
  }
  BlockContents contents;
  Status s = ReadBlock(handle, &contents);
  if (!s.ok()) {
    return s;
  }
  Block block(contents);
  std::unique_ptr<Iterator> iter(block.NewIterator(icmp_));
  if (filter != nullptr) {
    filter->StartBlock(handle.offset());
  }
  // Work on copies so a failed block leaves the walk as it was.
  std::string first;
  std::string last = stats_.largest;
  uint64_t count = 0;
  uint64_t max_sequence = stats_.max_sequence;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    const Slice key = iter->key();
    if (!ParseInternalKey(key, &parsed)) {
      return Status::Corruption("block key is not an internal key");
    }
    if (!last.empty() && icmp_->Compare(last, key) >= 0) {
      return Status::Corruption("keys out of order");
    }
    if (count == 0) {
      if (!separator_.empty() && icmp_->Compare(separator_, key) >= 0) {
        return Status::Corruption(
            "index separator not below the next block's first key");
      }
      first.assign(key.data(), key.size());
    }
    last.assign(key.data(), key.size());
    max_sequence = std::max(max_sequence, parsed.sequence);
    count++;
    if (entries != nullptr) {
      entries->emplace_back(key.ToString(), iter->value().ToString());
    }
    if (filter != nullptr) {
      filter->AddKey(key);
    }
  }
  if (!iter->status().ok()) {
    return iter->status();
  }
  if (count == 0) {
    return Status::Corruption("data block has no entries");
  }
  if (icmp_->Compare(separator, last) < 0) {
    return Status::Corruption("index separator below its block's last key");
  }
  if (stats_.blocks == 0) {
    stats_.smallest = std::move(first);
  }
  stats_.largest = std::move(last);
  stats_.max_sequence = max_sequence;
  stats_.entries += count;
  stats_.blocks++;
  separator_.assign(separator.data(), separator.size());
  return Status::OK();
}

namespace {

// Reads the footer of the table in file[0, file_size) and its index
// block, CRC checked.
Status ReadFooterAndIndex(RandomAccessFile* file, const BlockWalker& walker,
                          uint64_t file_size, Footer* footer,
                          BlockContents* index) {
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file too short to be a table");
  }
  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s = file->Read(file_size - Footer::kEncodedLength,
                        Footer::kEncodedLength, &footer_input, footer_space);
  if (s.ok()) {
    s = footer->DecodeFrom(&footer_input);
  }
  if (s.ok()) {
    s = walker.ReadBlock(footer->index_handle(), index);
  }
  return s;
}

// Checks the CRCs of the metaindex block and of every block it names
// (the filter), which the data walk never reads.
Status CheckMetaBlocks(const BlockWalker& walker, const BlockHandle& handle) {
  BlockContents contents;
  Status s = walker.ReadBlock(handle, &contents);
  if (!s.ok()) {
    return s;
  }
  Block metaindex(contents);
  std::unique_ptr<Iterator> iter(metaindex.NewIterator(BytewiseComparator()));
  for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
    BlockHandle meta_handle;
    Slice handle_value = iter->value();
    s = meta_handle.DecodeFrom(&handle_value);
    BlockContents meta;
    if (s.ok()) {
      s = walker.ReadBlock(meta_handle, &meta);
    }
    if (s.ok() && meta.heap_allocated) {
      delete[] meta.data.data();
    }
  }
  return s.ok() ? iter->status() : s;
}

}  // namespace

Status VerifyTable(Env* env, const Options& options, const std::string& fname,
                   const TableVerifySpec& spec, TableVerifyReport* report) {
  TableVerifyReport local_report;
  TableVerifyReport* rep = (report != nullptr) ? report : &local_report;
  *rep = TableVerifyReport();

  // Stage 1: the cheapest possible check — does the file still have the
  // size the manifest promised?
  uint64_t actual_size = 0;
  Status s = env->GetFileSize(fname, &actual_size);
  if (!s.ok()) {
    return s;
  }
  if (spec.file_size != 0 && actual_size != spec.file_size) {
    return Status::Corruption(fname, "file size does not match manifest");
  }

  // Stage 2: whole-file crc32c against the install-time checksum. This
  // catches any flipped byte anywhere, including regions the structural
  // pass cannot cover (footer padding).
  if (spec.has_file_checksum) {
    uint32_t crc = 0;
    s = ComputeFileChecksum(env, fname, spec.rate_limiter, &crc, &rep->bytes);
    if (!s.ok()) {
      return s;
    }
    if (crc != spec.file_checksum) {
      return Status::Corruption(fname,
                                "whole-file checksum does not match manifest");
    }
  }

  // Stage 3: structural walk — footer, index and meta blocks, every data
  // block, and the walked key range against the manifest bounds.
  RandomAccessFile* raw_file = nullptr;
  s = env->NewRandomAccessFile(fname, &raw_file);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<RandomAccessFile> file(raw_file);
  const Comparator* cmp = options.comparator;
  BlockWalker walker(file.get(), cmp);
  Footer footer;
  BlockContents index_contents;
  s = ReadFooterAndIndex(file.get(), walker, actual_size, &footer,
                         &index_contents);
  if (!s.ok()) {
    return s;
  }
  Block index(index_contents);
  s = CheckMetaBlocks(walker, footer.metaindex_handle());
  std::unique_ptr<Iterator> iter(index.NewIterator(cmp));
  for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
    BlockHandle handle;
    Slice handle_value = iter->value();
    s = handle.DecodeFrom(&handle_value);
    if (s.ok()) {
      s = walker.NextBlock(iter->key(), handle, nullptr);
    }
  }
  if (s.ok()) {
    s = iter->status();
  }
  rep->walk = walker.stats();
  if (!s.ok()) {
    return s;
  }
  const BlockWalkStats& walk = walker.stats();
  if (walk.entries > 0 && !spec.smallest.empty() &&
      cmp->Compare(walk.smallest, spec.smallest) < 0) {
    return Status::Corruption(fname, "key below manifest smallest bound");
  }
  if (walk.entries > 0 && !spec.largest.empty() &&
      cmp->Compare(walk.largest, spec.largest) > 0) {
    return Status::Corruption(fname, "key above manifest largest bound");
  }
  return Status::OK();
}

Status SalvageTable(Env* env, const Options& options,
                    const std::string& src_fname, uint64_t src_file_size,
                    const std::string& dst_fname, SalvageResult* result) {
  *result = SalvageResult();

  RandomAccessFile* raw_file = nullptr;
  Status s = env->NewRandomAccessFile(src_fname, &raw_file);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<RandomAccessFile> file(raw_file);

  if (src_file_size == 0) {
    s = env->GetFileSize(src_fname, &src_file_size);
    if (!s.ok()) {
      return s;
    }
  }

  // Footer and index must be readable: they are the map to everything
  // else. When they are the damaged part there is nothing to salvage —
  // the caller drops the file and relies on surviving copies.
  BlockWalker walker(file.get(), options.comparator);
  Footer footer;
  BlockContents index_contents;
  s = ReadFooterAndIndex(file.get(), walker, src_file_size, &footer,
                         &index_contents);
  if (!s.ok()) {
    return s;
  }
  Block index_block(index_contents);

  WritableFile* raw_out = nullptr;
  s = env->NewWritableFile(dst_fname, &raw_out);
  if (!s.ok()) {
    return s;
  }
  ChecksumWritableFile* out = new ChecksumWritableFile(raw_out);
  std::unique_ptr<WritableFile> out_guard(out);
  TableBuilder builder(options, out);

  // Copy only the blocks the walker passes; a block that fails any
  // check is the rot and is dropped whole.
  std::vector<std::pair<std::string, std::string>> entries;
  std::unique_ptr<Iterator> index_iter(
      index_block.NewIterator(options.comparator));
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    BlockHandle handle;
    Slice handle_value = index_iter->value();
    if (!handle.DecodeFrom(&handle_value).ok() ||
        !walker.NextBlock(index_iter->key(), handle, &entries).ok()) {
      result->dropped_blocks++;
      continue;
    }
    for (const auto& kv : entries) {
      builder.Add(Slice(kv.first), Slice(kv.second));
    }
  }
  if (!index_iter->status().ok()) {
    builder.Abandon();
    return index_iter->status();
  }

  result->walk = walker.stats();
  if (result->walk.entries == 0) {
    // Nothing rescued: leave no output behind.
    builder.Abandon();
    out_guard.reset();
    env->RemoveFile(dst_fname).IgnoreError();
    return Status::OK();
  }

  s = builder.Finish();
  if (s.ok()) {
    result->file_size = builder.FileSize();
    result->file_checksum = out->checksum();
    s = out->Sync();
  }
  if (s.ok()) {
    s = out->Close();
  }
  if (!s.ok()) {
    env->RemoveFile(dst_fname).IgnoreError();
    return s;
  }
  return Status::OK();
}

}  // namespace fcae
