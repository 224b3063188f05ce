#include "fpga/decoder.h"

#include <algorithm>
#include <memory>

#include "table/block.h"
#include "table/format.h"
#include "util/comparator.h"

namespace fcae {
namespace fpga {

namespace {

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

// Decodes the block `handle` addresses in `image`, trailer checked, into
// one owned buffer holding each record's key and value back to back, and
// appends records that point into it.
Status DecodeRecords(const Slice& image, const BlockHandle& handle,
                     std::vector<KvRecord>* records) {
  std::unique_ptr<Iterator> iter(
      NewImageBlockIterator(image, handle, BytewiseComparator()));
  auto bytes = std::make_shared<std::string>();
  bytes->reserve(handle.size());
  const size_t first = records->size();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    const Slice key = iter->key();
    const Slice value = iter->value();
    bytes->append(key.data(), key.size());
    bytes->append(value.data(), value.size());
    // Sizes only: the buffer may still move while it grows.
    records->push_back(KvRecord{Slice(nullptr, key.size()),
                                Slice(nullptr, value.size()), nullptr});
  }
  const char* p = bytes->data();
  for (size_t i = first; i < records->size(); i++) {
    KvRecord& r = (*records)[i];
    r.internal_key = Slice(p, r.internal_key.size());
    p += r.internal_key.size();
    r.value = Slice(p, r.value.size());
    p += r.value.size();
    r.block = bytes;
  }
  return iter->status();
}

}  // namespace

InputDecoder::InputDecoder(const EngineConfig& config,
                           const DeviceInput* input, int input_no)
    : config_(config),
      input_(input),
      input_no_(input_no),
      block_fifo_(static_cast<size_t>(
          config.BlocksSeparated() ? config.block_prefetch_depth : 1)),
      key_fifo_(static_cast<size_t>(config.record_fifo_depth)),
      transfer_fifo_(static_cast<size_t>(config.record_fifo_depth)) {
  (void)input_no_;
}

bool InputDecoder::LoadNextIndexBlock() {
  while (next_sstable_ < input_->sstables.size()) {
    const SstableDescriptor& desc = input_->sstables[next_sstable_];
    next_sstable_++;
    sstable_data_base_ = desc.data_offset;

    BlockHandle index_handle;
    index_handle.set_offset(desc.index_offset);
    index_handle.set_size(desc.index_size - kBlockTrailerSize);
    std::unique_ptr<Iterator> iter(NewImageBlockIterator(
        input_->index_memory, index_handle, BytewiseComparator()));
    block_handles_.clear();
    next_handle_ = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      Slice handle_input = iter->value();
      BlockHandle handle;
      if (!handle.DecodeFrom(&handle_input).ok()) {
        status_ = Status::Corruption("bad block handle in index block");
        return false;
      }
      block_handles_.emplace_back(handle.offset(), handle.size());
    }
    if (!iter->status().ok()) {
      status_ = iter->status();
      return false;
    }
    if (block_handles_.empty()) {
      continue;  // Empty table; move on to the next one.
    }

    // Index block read round trip: DRAM latency + the block streamed in
    // at 8 bytes/cycle (narrow port; paper: "no need to make this
    // modification for index block").
    index_busy_ = config_.dram_read_latency + CeilDiv(desc.index_size, 8);
    return true;
  }
  return false;
}

void InputDecoder::TickFetcher() {
  if (!status_.ok()) return;

  if (index_busy_ > 0) {
    index_busy_--;
    // In the separated design the index decode overlaps data decoding;
    // the stall only matters when the handle queue runs dry, which the
    // logic below models naturally. In the basic design the single read
    // pointer means nothing else proceeds, modeled by fetch_in_flight_
    // staying false until index_busy_ drains.
    if (index_busy_ > 0) return;
  }

  if (fetch_in_flight_) {
    if (fetch_busy_ > 0) {
      fetch_busy_--;
    }
    if (fetch_busy_ == 0 && block_fifo_.CanPush()) {
      block_fifo_.Push(std::move(fetching_block_));
      fetch_in_flight_ = false;
    }
    return;
  }

  // Need a next handle?
  if (next_handle_ >= block_handles_.size()) {
    if (!LoadNextIndexBlock()) {
      return;  // Fully exhausted (or errored).
    }
    if (index_busy_ > 0) return;  // Pay the index round trip first.
  }

  if (!block_fifo_.CanPush()) {
    return;  // Prefetch window full.
  }
  if (!config_.BlocksSeparated() &&
      (!block_fifo_.Empty() || next_record_ < current_records_.size() ||
       decode_busy_ > 0 || record_ready_)) {
    // The basic design has a single read pointer: the next fetch cannot
    // start until the current block is completely decoded (paper
    // Section V-B1: "the process of generating key-values will pause,
    // until meta data is acquired from index block again").
    return;
  }

  const auto [offset, size] = block_handles_[next_handle_];
  next_handle_++;

  // Functional decode of the block happens when the fetch completes.
  BlockHandle handle;
  handle.set_offset(sstable_data_base_ + offset);
  handle.set_size(size);
  fetching_block_ = PendingBlock();
  Status s =
      DecodeRecords(input_->data_memory, handle, &fetching_block_.records);
  if (!s.ok()) {
    status_ = s;
    return;
  }
  const uint64_t stored_size = size + kBlockTrailerSize;
  fetching_block_.stored_size = stored_size;

  bytes_fetched_ += stored_size;

  // Burst read: latency + W_in bytes per cycle.
  fetch_busy_ = config_.dram_read_latency +
                CeilDiv(stored_size, config_.EffectiveInputWidth());
  fetch_in_flight_ = true;

  // In the basic design the read pointer switches back to the index
  // block after each data block: charge the extra round trip up front
  // for the *next* handle by re-arming index_busy_.
  if (!config_.BlocksSeparated()) {
    index_busy_ += config_.dram_read_latency;
  }
}

void InputDecoder::TickDecoder() {
  if (!status_.ok()) return;

  if (record_ready_) {
    // Waiting for space in both output FIFOs (key stream + copy/value).
    if (key_fifo_.CanPush() && transfer_fifo_.CanPush()) {
      Publish();
    } else {
      backpressure_cycles_++;
      return;
    }
  }

  if (decode_busy_ > 0) {
    decode_busy_--;
    busy_cycles_++;
    if (decode_busy_ > 0) return;
    // Decode finished this cycle: publish immediately if there is room,
    // otherwise stall in record_ready_ state.
    record_ready_ = true;
    if (key_fifo_.CanPush() && transfer_fifo_.CanPush()) {
      Publish();
    }
    return;
  }

  // Start decoding the next record.
  if (next_record_ >= current_records_.size()) {
    if (!block_fifo_.CanPop()) {
      if (!Exhausted()) {
        fetch_stall_cycles_++;
      }
      return;
    }
    PendingBlock block = block_fifo_.Pop();
    current_records_ = std::move(block.records);
    next_record_ = 0;
    if (current_records_.empty()) {
      return;
    }
  }

  pending_record_ = std::move(current_records_[next_record_++]);

  // Table III: decoding key (1 byte/cycle) + value read (V bytes/cycle).
  const uint64_t key_cycles = pending_record_.internal_key.size();
  const uint64_t value_cycles = CeilDiv(pending_record_.value.size(),
                                        config_.EffectiveValueWidth());
  decode_busy_ = key_cycles + value_cycles;
  if (decode_busy_ == 0) decode_busy_ = 1;
}

void InputDecoder::Publish() {
  key_fifo_.Push(KeyRef{pending_record_.internal_key,
                        static_cast<uint32_t>(pending_record_.value.size())});
  transfer_fifo_.Push(std::move(pending_record_));
  record_ready_ = false;
  records_decoded_++;
}

void InputDecoder::Tick() {
  // Downstream first so a freed FIFO slot is usable next cycle, not in
  // the same one.
  TickDecoder();
  TickFetcher();
}

uint64_t InputDecoder::QuietCycles() const {
  // TickDecoder: backpressure and fetch stalls last until a FIFO moves;
  // the last cycle of a decode publishes the record.
  uint64_t decoder = 0;
  if (record_ready_) {
    if (!key_fifo_.CanPush() || !transfer_fifo_.CanPush()) {
      decoder = kQuietForever;
    }
  } else if (decode_busy_ > 0) {
    decoder = decode_busy_ - 1;
  } else if (next_record_ >= current_records_.size() &&
             !block_fifo_.CanPop()) {
    decoder = kQuietForever;
  }

  // TickFetcher: the last cycle of an index load goes on to the fetch
  // logic in the same cycle, and a finished fetch pushes its block.
  uint64_t fetcher = 0;
  if (index_busy_ > 0) {
    fetcher = index_busy_ - 1;
  } else if (fetch_in_flight_) {
    if (!block_fifo_.CanPush()) {
      fetcher = kQuietForever;
    } else if (fetch_busy_ > 0) {
      fetcher = fetch_busy_ - 1;
    }
  } else if (next_handle_ >= block_handles_.size()) {
    if (next_sstable_ >= input_->sstables.size()) fetcher = kQuietForever;
  } else if (!block_fifo_.CanPush() ||
             (!config_.BlocksSeparated() &&
              (!block_fifo_.Empty() || next_record_ < current_records_.size() ||
               decode_busy_ > 0 || record_ready_))) {
    fetcher = kQuietForever;
  }
  return std::min(decoder, fetcher);
}

void InputDecoder::SkipQuiet(uint64_t n) {
  if (record_ready_) {
    backpressure_cycles_ += n;
  } else if (decode_busy_ > 0) {
    decode_busy_ -= n;
    busy_cycles_ += n;
  } else if (!Exhausted()) {
    fetch_stall_cycles_ += n;
  }

  if (index_busy_ > 0) {
    index_busy_ -= n;
  } else if (fetch_in_flight_) {
    fetch_busy_ -= std::min(n, fetch_busy_);
  }
}

bool InputDecoder::Exhausted() const {
  if (!status_.ok()) {
    return true;  // Error: stop producing; engine surfaces status.
  }
  return next_sstable_ >= input_->sstables.size() &&
         next_handle_ >= block_handles_.size() && !fetch_in_flight_ &&
         block_fifo_.Empty() && next_record_ >= current_records_.size() &&
         decode_busy_ == 0 && !record_ready_;
}

}  // namespace fpga
}  // namespace fcae
