// Span recording for the traced build of lobbench.
//
// Every call that crosses a module boundary becomes a span: site, start,
// end, parent span and op id. Self time (span time minus the time of
// directly nested spans) is accumulated per site as spans close; the spans
// of a window's first ops are kept in memory and written out at exit. Only
// spans opened inside a timed window are recorded. In the untraced build
// ScopedSpan is an empty object and nothing here costs anything.

#ifndef PERFBENCH_LOBBENCH_TRACE_H_
#define PERFBENCH_LOBBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace perfbench {

/// Layers the per-layer metrics are reported for, named after src/ modules.
enum class Layer : uint8_t {
  kClient,  ///< the benchmark's own loop around an op
  kIoModel,
  kBuffer,
  kBuddy,
  kLobTree,
  kCore,
  kObs,
  kEsm,
  kEos,
  kStarburst,
  kCount,
};

const char* LayerName(Layer layer);

// X(site enum, span name, layer). Wrapped library entry points first, then
// the calls lobbench times itself.
#define PERFBENCH_SITES(X)                                              \
  X(kSimDiskRead, "SimDisk::Read", kIoModel)                            \
  X(kSimDiskWrite, "SimDisk::Write", kIoModel)                          \
  X(kSimDiskReadRun, "SimDisk::ReadRun", kIoModel)                      \
  X(kSimDiskWriteRun, "SimDisk::WriteRun", kIoModel)                    \
  X(kPoolFixPage, "BufferPool::FixPage", kBuffer)                       \
  X(kPoolReadSegmentRange, "BufferPool::ReadSegmentRange", kBuffer)     \
  X(kPoolWriteSegmentRange, "BufferPool::WriteSegmentRange", kBuffer)   \
  X(kPoolWriteFreshSegment, "BufferPool::WriteFreshSegment", kBuffer)   \
  X(kPoolFlushRun, "BufferPool::FlushRun", kBuffer)                     \
  X(kPoolInvalidate, "BufferPool::Invalidate", kBuffer)                 \
  X(kAreaAllocate, "DatabaseArea::Allocate", kBuddy)                    \
  X(kAreaFree, "DatabaseArea::Free", kBuddy)                            \
  X(kTreeFindLeaf, "PositionalTree::FindLeaf", kLobTree)                \
  X(kTreeLastLeaf, "PositionalTree::LastLeaf", kLobTree)                \
  X(kTreeSize, "PositionalTree::Size", kLobTree)                        \
  X(kTreeInsertLeaf, "PositionalTree::InsertLeaf", kLobTree)            \
  X(kTreeRemoveLeaf, "PositionalTree::RemoveLeaf", kLobTree)            \
  X(kTreeUpdateLeaf, "PositionalTree::UpdateLeaf", kLobTree)            \
  X(kCatalogGet, "ObjectCatalog::Get", kCore)                           \
  X(kCatalogPut, "ObjectCatalog::Put", kCore)                           \
  X(kCatalogRemove, "ObjectCatalog::Remove", kCore)                     \
  X(kObsRecordOpEnd, "ObsRegistry::RecordOpEnd", kObs)                  \
  X(kOp, "op", kClient)                                                 \
  X(kDbLookup, "Database::Lookup", kCore)                               \
  X(kDbCreateObject, "Database::CreateObject", kCore)                   \
  X(kDbDropObject, "Database::DropObject", kCore)                       \
  X(kDbManagerFor, "Database::ManagerFor", kCore)                       \
  X(kDbManagerForObject, "Database::ManagerForObject", kCore)           \
  X(kEsmCall, "EsmManager", kEsm)                                       \
  X(kEosCall, "EosManager", kEos)                                       \
  X(kStarburstCall, "StarburstManager", kStarburst)

enum class Site : uint16_t {
#define PERFBENCH_SITE_ENUM(id, name, layer) id,
  PERFBENCH_SITES(PERFBENCH_SITE_ENUM)
#undef PERFBENCH_SITE_ENUM
  kCount,
};

constexpr size_t kSiteCount = static_cast<size_t>(Site::kCount);

const char* SiteName(Site site);
Layer SiteLayer(Site site);

/// Per-site totals over the recorded windows.
struct SiteTotals {
  std::array<uint64_t, kSiteCount> calls{};
  std::array<uint64_t, kSiteCount> self_ns{};
};

#if PERFBENCH_TRACED

/// Opens a span on construction and closes it on destruction; a no-op
/// outside a recording window.
class ScopedSpan {
 public:
  explicit ScopedSpan(Site site);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool open_;
};

#else

class ScopedSpan {
 public:
  explicit ScopedSpan(Site) {}
};

#endif

namespace trace {

/// True in the build whose library calls are wrapped.
constexpr bool kEnabled = PERFBENCH_TRACED != 0;

/// Starts a recording window: drops the spans of the previous window
/// (the totals keep accumulating) and records from now on.
void BeginWindow();
void EndWindow();

/// Op id stamped on the spans that follow.
void SetOp(uint32_t op);

const SiteTotals& Totals();

/// Writes the kept spans of the last window to `path` as tab-separated
/// lines "span  parent  op  site  start_ns  end_ns" (parent -1 for roots).
bool WriteSpans(const std::string& path);

/// Wrapped entry points the linked library does not define (their calls
/// cannot be timed). Empty when every wrap resolved.
std::string MissingEntryPoints();

}  // namespace trace
}  // namespace perfbench

#endif  // PERFBENCH_LOBBENCH_TRACE_H_
