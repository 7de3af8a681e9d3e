// StagedBytes: the one buffer an engine rewrite stages its result in.
//
// Every shadowed rewrite in the three engines has the same shape: read
// whole segments, splice some bytes in or out, and write the result to a
// fresh segment. The result is staged in one uninitialised buffer sized
// once: the segments are read straight into it, and a splice moves only
// the bytes after the edit point (memmove) and copies the new ones in
// (memcpy). Nothing is zero-filled in advance and nothing is reallocated,
// so each staged byte is written exactly once by the read or the splice.
// An ESM append that no old leaf joins stages nothing: its new leaves are
// written straight from the caller's buffer.
//
// Reads take the same care with the caller's string: FillRead grows it
// without zero-filling and lets the pool copy each byte in once.

#ifndef LOB_BUFFER_STAGED_BYTES_H_
#define LOB_BUFFER_STAGED_BYTES_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "buffer/buffer_pool.h"
#include "common/logging.h"
#include "common/status.h"

namespace lob {

/// `size` bytes in one uninitialised heap buffer. Converts to a
/// string_view of the staged bytes.
class StagedBytes {
 public:
  explicit StagedBytes(uint64_t size)
      : data_(std::make_unique_for_overwrite<char[]>(size)), size_(size) {}

  char* data() { return data_.get(); }
  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Drops the bytes past `n` (a splice that erased more than it added).
  void Truncate(uint64_t n) {
    LOB_CHECK_LE(n, size_);
    size_ = n;
  }

  operator std::string_view() const {  // NOLINT(google-explicit-constructor)
    return {data_.get(), size_};
  }

 private:
  std::unique_ptr<char[]> data_;
  uint64_t size_;
};

/// Turns buf[0, bytes) into buf[0, at) + ins + buf[at + erase, bytes) and
/// returns the new length. `buf` must have room for both lengths.
inline uint64_t SpliceInPlace(char* buf, uint64_t bytes, uint64_t at,
                              uint64_t erase, std::string_view ins) {
  LOB_CHECK_LE(at + erase, bytes);
  if (ins.size() != erase) {
    std::memmove(buf + at + ins.size(), buf + at + erase,
                 bytes - at - erase);
  }
  if (!ins.empty()) std::memcpy(buf + at, ins.data(), ins.size());
  return bytes - erase + ins.size();
}

/// Stages the `bytes`-byte segment at `seg_first` of `area` with
/// [at, at + erase) replaced by `ins`. The segment is read with the one
/// whole-segment ReadSegmentRange call a rewrite always made, straight
/// into the staging buffer.
[[nodiscard]] inline StatusOr<StagedBytes> StageSplice(
    BufferPool* pool, AreaId area, PageId seg_first, uint64_t bytes,
    uint64_t at, uint64_t erase, std::string_view ins) {
  StagedBytes out(ins.size() > erase ? bytes + ins.size() - erase : bytes);
  LOB_RETURN_IF_ERROR(
      pool->ReadSegmentRange(area, seg_first, bytes, 0, bytes, out.data()));
  out.Truncate(SpliceInPlace(out.data(), bytes, at, erase, ins));
  return out;
}

/// Sets *out to the `n` bytes that `fill(dst)` writes to dst[0, n), the
/// way every engine's Read fills the caller's string. The old bytes are
/// dropped first, so a string that must grow copies none of them, and the
/// new ones are not zeroed before `fill` writes them. On failure *out is
/// empty.
template <typename Fill>
[[nodiscard]] Status FillRead(std::string* out, uint64_t n, Fill&& fill) {
  out->clear();
  Status status;
  out->resize_and_overwrite(n, [&](char* dst, size_t) {
    status = fill(dst);
    return status.ok() ? n : 0;
  });
  return status;
}

}  // namespace lob

#endif  // LOB_BUFFER_STAGED_BYTES_H_
