#ifndef FCAE_TABLE_BLOCK_H_
#define FCAE_TABLE_BLOCK_H_

#include <cstddef>
#include <cstdint>

#include "table/iterator.h"

namespace fcae {

class BlockHandle;
struct BlockContents;
class Comparator;

/// An immutable, iterable SSTable block (see BlockBuilder for the
/// layout). Owns its backing storage when the contents were heap
/// allocated.
class Block {
 public:
  /// Initializes the block with the specified contents.
  explicit Block(const BlockContents& contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  ~Block();

  size_t size() const { return size_; }

  /// Returns a new iterator over the block using `comparator` for Seek().
  Iterator* NewIterator(const Comparator* comparator);

 private:
  class Iter;

  uint32_t NumRestarts() const;

  const char* data_;
  size_t size_;
  uint32_t restart_offset_;  // Offset in data_ of restart array.
  bool owned_;               // Block owns data_[].
};

/// Returns an iterator over the stored block `handle` addresses inside
/// `image`, read with ReadImageBlock. The iterator owns the decoded
/// block, and a read error becomes its status.
Iterator* NewImageBlockIterator(const Slice& image, const BlockHandle& handle,
                                const Comparator* comparator);

}  // namespace fcae

#endif  // FCAE_TABLE_BLOCK_H_
