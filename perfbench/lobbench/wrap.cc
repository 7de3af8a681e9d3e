// Link-time wrappers for the traced build of lobbench (lobbench_traced).
//
// The build links the library's static archives with -Wl,--wrap=<mangled
// name> for every entry below, so each undefined reference to a wrapped
// member function resolves to __wrap_<name>, which opens a span and calls
// the original through __real_<name>. A member function is an ordinary
// function taking `this` first, so each wrapper is an extern "C" function
// under the mangled name with the object pointer as its first parameter.
// Calls inside one translation unit never reference the symbol and are not
// intercepted: what is timed is exactly the calls between modules.
//
// The __real_ references are weak: an entry point that a later version of
// the library removes or re-signs (changing its mangled name) leaves its
// wrapper unused instead of breaking the link, and MissingEntryPoints()
// reports it (CMakeLists.txt loads the archives whole so that every entry
// point that does exist is linked). Keep this list and PERFBENCH_WRAPPED in
// CMakeLists.txt equal.

#include <string_view>

#include "buddy/database_area.h"
#include "buffer/buffer_pool.h"
#include "core/object_catalog.h"
#include "lobbench/trace.h"
#include "iomodel/sim_disk.h"
#include "lobtree/positional_tree.h"
#include "obs/obs_registry.h"

using perfbench::ScopedSpan;
using perfbench::Site;

// X(mangled name, span site, return type, parameters, arguments)
#define PERFBENCH_WRAPS(X)                                                    \
  X(_ZN3lob7SimDisk4ReadEjjjPv, kSimDiskRead, lob::Status,                    \
    (lob::SimDisk * self, lob::AreaId area, lob::PageId first, uint32_t n,    \
     void* dst),                                                              \
    (self, area, first, n, dst))                                              \
  X(_ZN3lob7SimDisk5WriteEjjjPKv, kSimDiskWrite, lob::Status,                 \
    (lob::SimDisk * self, lob::AreaId area, lob::PageId first, uint32_t n,    \
     const void* src),                                                        \
    (self, area, first, n, src))                                              \
  X(_ZN3lob7SimDisk7ReadRunEjjjPNS_7PageRefE, kSimDiskReadRun, lob::Status,   \
    (lob::SimDisk * self, lob::AreaId area, lob::PageId first, uint32_t n,    \
     lob::PageRef* refs),                                                     \
    (self, area, first, n, refs))                                             \
  X(_ZN3lob7SimDisk8WriteRunEjjjPKPKcPNS_10MutPageRefE, kSimDiskWriteRun,     \
    lob::Status,                                                              \
    (lob::SimDisk * self, lob::AreaId area, lob::PageId first, uint32_t n,    \
     const char* const* srcs, lob::MutPageRef* imgs),                         \
    (self, area, first, n, srcs, imgs))                                       \
  X(_ZN3lob10BufferPool7FixPageEjjNS_7FixModeE, kPoolFixPage,                 \
    lob::StatusOr<lob::PageGuard>,                                            \
    (lob::BufferPool * self, lob::AreaId area, lob::PageId page,              \
     lob::FixMode mode),                                                      \
    (self, area, page, mode))                                                 \
  X(_ZN3lob10BufferPool16ReadSegmentRangeEjjmmmPc, kPoolReadSegmentRange,     \
    lob::Status,                                                              \
    (lob::BufferPool * self, lob::AreaId area, lob::PageId seg_first,         \
     uint64_t seg_valid, uint64_t off, uint64_t n, char* dst),                \
    (self, area, seg_first, seg_valid, off, n, dst))                          \
  X(_ZN3lob10BufferPool17WriteSegmentRangeEjjmmmPKc, kPoolWriteSegmentRange,  \
    lob::Status,                                                              \
    (lob::BufferPool * self, lob::AreaId area, lob::PageId seg_first,         \
     uint64_t seg_valid, uint64_t off, uint64_t n, const char* src),          \
    (self, area, seg_first, seg_valid, off, n, src))                          \
  X(_ZN3lob10BufferPool17WriteFreshSegmentEjjPKcm, kPoolWriteFreshSegment,    \
    lob::Status,                                                              \
    (lob::BufferPool * self, lob::AreaId area, lob::PageId first,             \
     const char* data, uint64_t n),                                           \
    (self, area, first, data, n))                                             \
  X(_ZN3lob10BufferPool8FlushRunEjjj, kPoolFlushRun, lob::Status,             \
    (lob::BufferPool * self, lob::AreaId area, lob::PageId first,             \
     uint32_t n),                                                             \
    (self, area, first, n))                                                   \
  X(_ZN3lob10BufferPool10InvalidateEjjj, kPoolInvalidate, lob::Status,        \
    (lob::BufferPool * self, lob::AreaId area, lob::PageId first,             \
     uint32_t n),                                                             \
    (self, area, first, n))                                                   \
  X(_ZN3lob12DatabaseArea8AllocateEj, kAreaAllocate,                          \
    lob::StatusOr<lob::Segment>, (lob::DatabaseArea * self, uint32_t n),      \
    (self, n))                                                                \
  X(_ZN3lob12DatabaseArea4FreeEjj, kAreaFree, lob::Status,                    \
    (lob::DatabaseArea * self, lob::PageId first, uint32_t n),                \
    (self, first, n))                                                         \
  X(_ZN3lob14PositionalTree8FindLeafEjm, kTreeFindLeaf,                       \
    lob::StatusOr<lob::PositionalTree::LeafInfo>,                             \
    (lob::PositionalTree * self, lob::PageId root, uint64_t off),             \
    (self, root, off))                                                        \
  X(_ZN3lob14PositionalTree8LastLeafEj, kTreeLastLeaf,                        \
    lob::StatusOr<lob::PositionalTree::LeafInfo>,                             \
    (lob::PositionalTree * self, lob::PageId root), (self, root))             \
  X(_ZN3lob14PositionalTree4SizeEj, kTreeSize, lob::StatusOr<uint64_t>,       \
    (lob::PositionalTree * self, lob::PageId root), (self, root))             \
  X(_ZN3lob14PositionalTree10InsertLeafEjmRKNS_9LeafEntryEPNS_9OpContextE,    \
    kTreeInsertLeaf, lob::Status,                                             \
    (lob::PositionalTree * self, lob::PageId root, uint64_t at,               \
     const lob::LeafEntry& entry, lob::OpContext* ctx),                       \
    (self, root, at, entry, ctx))                                             \
  X(_ZN3lob14PositionalTree10RemoveLeafEjmPNS_9OpContextE, kTreeRemoveLeaf,   \
    lob::StatusOr<lob::LeafEntry>,                                            \
    (lob::PositionalTree * self, lob::PageId root, uint64_t start,            \
     lob::OpContext* ctx),                                                    \
    (self, root, start, ctx))                                                 \
  X(_ZN3lob14PositionalTree10UpdateLeafEjmljPNS_9OpContextE, kTreeUpdateLeaf, \
    lob::Status,                                                              \
    (lob::PositionalTree * self, lob::PageId root, uint64_t off,              \
     int64_t delta, lob::PageId new_page, lob::OpContext* ctx),               \
    (self, root, off, delta, new_page, ctx))                                  \
  X(_ZN3lob13ObjectCatalog3GetESt17basic_string_viewIcSt11char_traitsIcEE,    \
    kCatalogGet, lob::StatusOr<lob::ObjectId>,                                \
    (lob::ObjectCatalog * self, std::string_view name), (self, name))         \
  X(_ZN3lob13ObjectCatalog3PutESt17basic_string_viewIcSt11char_traitsIcEEj,   \
    kCatalogPut, lob::Status,                                                 \
    (lob::ObjectCatalog * self, std::string_view name, lob::ObjectId id),     \
    (self, name, id))                                                         \
  X(_ZN3lob13ObjectCatalog6RemoveESt17basic_string_viewIcSt11char_traitsIcEE, \
    kCatalogRemove, lob::Status,                                              \
    (lob::ObjectCatalog * self, std::string_view name), (self, name))         \
  X(_ZN3lob11ObsRegistry11RecordOpEndEPKcRKNS_7IoStatsEb, kObsRecordOpEnd,    \
    void,                                                                     \
    (lob::ObsRegistry * self, const char* label, const lob::IoStats& delta,   \
     bool record_queue),                                                      \
    (self, label, delta, record_queue))

#define PERFBENCH_DEFINE_WRAP(sym, site, Ret, params, args) \
  extern "C" Ret __real_##sym params __attribute__((weak)); \
  extern "C" Ret __wrap_##sym params {                      \
    ScopedSpan span(Site::site);                            \
    return __real_##sym args;                               \
  }
PERFBENCH_WRAPS(PERFBENCH_DEFINE_WRAP)
#undef PERFBENCH_DEFINE_WRAP

namespace perfbench::trace {

std::string MissingEntryPoints() {
  std::string missing;
#define PERFBENCH_CHECK_WRAP(sym, site, Ret, params, args) \
  if (__real_##sym == nullptr) missing += std::string(SiteName(Site::site)) + " ";
  PERFBENCH_WRAPS(PERFBENCH_CHECK_WRAP)
#undef PERFBENCH_CHECK_WRAP
  return missing;
}

}  // namespace perfbench::trace
