// SimDisk helpers for tests: contiguous-buffer adapters over the run API
// (each issues exactly one ReadRun/WriteRun call, so it is metered — one
// seek + n_pages transfers — and fault-checked exactly like that call),
// and the sticky fault most failure tests arm.

#ifndef LOB_TESTS_DISK_TEST_UTIL_H_
#define LOB_TESTS_DISK_TEST_UTIL_H_

#include <cstring>
#include <vector>

#include "iomodel/sim_disk.h"

namespace lob {

/// Writes `n_pages` adjacent pages gathered from the contiguous `src`.
inline Status WritePages(SimDisk* disk, AreaId area, PageId first,
                         uint32_t n_pages, const void* src) {
  std::vector<const char*> srcs(n_pages);
  for (uint32_t i = 0; i < n_pages; ++i) {
    srcs[i] = static_cast<const char*>(src) +
              static_cast<size_t>(i) * disk->page_size();
  }
  return disk->WriteRun(area, first, n_pages, srcs.data());
}

/// Reads `n_pages` adjacent pages into the contiguous `dst`; pages never
/// written read as zeros.
inline Status ReadPages(SimDisk* disk, AreaId area, PageId first,
                        uint32_t n_pages, void* dst) {
  std::vector<PageRef> refs(n_pages);
  LOB_RETURN_IF_ERROR(disk->ReadRun(area, first, n_pages, refs.data()));
  char* out = static_cast<char*>(dst);
  for (const PageRef& ref : refs) {
    if (ref.data != nullptr) {
      std::memcpy(out, ref.data, disk->page_size());
    } else {
      std::memset(out, 0, disk->page_size());
    }
    out += disk->page_size();
  }
  return Status::OK();
}

/// A fault that lets `after_calls` foreground calls succeed and fails every
/// later one until SimDisk::ClearFaults().
inline FaultSpec StickyFaultAfter(uint64_t after_calls) {
  FaultSpec spec;
  spec.kind = FaultKind::kSticky;
  spec.after_calls = after_calls;
  return spec;
}

}  // namespace lob

#endif  // LOB_TESTS_DISK_TEST_UTIL_H_
