// SimDisk: an in-memory multi-area page store metered by the paper's cost
// model.
//
// The paper ran its leaf-data area without actually touching the disk,
// "simply keeping track of the number of disk I/O calls (to count disk
// seeks) and the number of pages involved in each access" (4.1). SimDisk is
// the same idea taken one step further: every area stores real bytes in
// memory so correctness is testable, and every ReadRun/WriteRun call is
// charged `kSeekMs + n_pages * PageTransferMs()` (common/config.h).
//
// An I/O call always covers physically adjacent pages of one area; callers
// that need scattered pages issue multiple calls (and pay multiple seeks),
// exactly as the simulated systems would on a real device.

#ifndef LOB_IOMODEL_SIM_DISK_H_
#define LOB_IOMODEL_SIM_DISK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "iomodel/fault_model.h"
#include "iomodel/io_stats.h"

namespace lob {

class ObsRegistry;
class TraceSession;

/// Identifies a database area (the paper uses two: one for leaf segments,
/// one for everything else).
using AreaId = uint32_t;

/// Page number within an area.
using PageId = uint32_t;

constexpr PageId kInvalidPage = UINT32_MAX;

/// Borrowed read-only view of one page image, returned by ReadRun.
///
/// Stability contract: page images never move or disappear for the life of
/// the disk, so the pointer stays valid indefinitely. The bytes are the
/// *live* image — a later WriteRun to the page shows through the view. A null
/// `data` means the page was never written and reads as zeros.
struct PageRef {
  const char* data = nullptr;
};

/// Borrowed mutable view of one page image, filled in by WriteRun so
/// callers (the buffer pool) can re-borrow freshly written pages without
/// copying them back out. Same stability contract as PageRef.
struct MutPageRef {
  char* data = nullptr;
};

/// In-memory simulated disk with per-call cost accounting.
class SimDisk {
 public:
  explicit SimDisk(const StorageConfig& config);

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  /// Creates a new (empty, unbounded) database area and returns its id.
  AreaId CreateArea();

  /// Number of areas created so far.
  uint32_t num_areas() const { return static_cast<uint32_t>(areas_.size()); }

  /// Zero-copy read of `n_pages` physically adjacent pages starting at
  /// `first`: fills `refs` with borrowed views of the page images instead
  /// of copying them out. One I/O call: costs one seek plus n_pages
  /// transfers.
  [[nodiscard]]
  Status ReadRun(AreaId area, PageId first, uint32_t n_pages, PageRef* refs);

  /// Gather-write of `n_pages` physically adjacent pages: page i is copied
  /// from `srcs[i]` (null = zero-fill; a pointer aliasing the page's own
  /// image is a no-op, letting coherence refreshes pass borrowed views
  /// back). When `imgs` is non-null it receives borrowed views of the
  /// written images. One I/O call, metered like ReadRun.
  [[nodiscard]]
  Status WriteRun(AreaId area, PageId first, uint32_t n_pages,
                  const char* const* srcs, MutPageRef* imgs = nullptr);

  /// Accumulated I/O counters since construction or the last ResetStats().
  const IoStats& stats() const { return stats_; }

  /// Zeroes the global counters. The attached registry's attribution
  /// ledger (if any) is reset with them so the conservation invariant
  /// "sum of attributed stats == global stats" keeps holding.
  void ResetStats();

  /// Restores a previously captured snapshot. Lets experiment harnesses run
  /// bookkeeping I/O (validation walks, audits) without perturbing the
  /// metered cost of the workload under study.
  void SetStats(const IoStats& stats) { stats_ = stats; }

  const StorageConfig& config() const { return config_; }
  uint32_t page_size() const { return config_.page_size; }

  /// Highest page index ever written in `area` plus one (0 if none).
  PageId AreaHighWater(AreaId area) const;

  /// Unmetered direct access to a page image for persistence and tests;
  /// nullptr when the page was never written. Not part of the simulated
  /// I/O path.
  const char* PeekPage(AreaId area, PageId page) const;

  // ---- Failure injection (see iomodel/fault_model.h) ----
  //
  // Countdown contract: a fault's `after_calls` counts *attributed
  // foreground* I/O calls only — calls made while attribution is
  // suspended (StorageSystem::UnmeteredSection: audit walks, fsck,
  // timeline sampling) neither fire faults nor advance any countdown,
  // and always succeed even while a sticky fault is live. BufferPool
  // flushes (FlushRun/FlushAll) issued on behalf of an operation are
  // ordinary foreground calls and do count. The countdown is
  // off-by-one-free: `after_calls == k` means exactly k matching calls
  // succeed and the (k+1)-th matching call fails. A fired fault does not
  // advance the match counters of other armed faults or the
  // foreground-call counter (the failed call "never happened" in the
  // cost model — CheckRange validation errors likewise do not count).

  /// Arms one fault in addition to any already armed. When several armed
  /// faults are due on the same call, the earliest-armed one fires.
  void ArmFault(const FaultSpec& spec);

  /// Disarms all faults.
  void ClearFaults() { faults_.clear(); }

  /// Number of armed faults that have not yet exhausted (a sticky fault
  /// never exhausts; a one-shot fault exhausts after firing once).
  uint32_t armed_faults() const;

  /// Attributed foreground I/O calls that *succeeded* since construction
  /// (never reset; unaffected by ResetStats/SetStats). Campaign baselines
  /// read this to size their fault sweeps. Note that each fault's
  /// `after_calls` countdown is *relative to its arming* (it counts
  /// matching successful calls from ArmFault on), not against this
  /// absolute clock: arming a one-shot fault with `after_calls == k`
  /// fails the (k+1)-th subsequent matching call, wherever the global
  /// clock stands.
  uint64_t foreground_calls() const { return foreground_calls_; }

  /// Armed faults that have fired (failed a foreground call) since
  /// construction. Like foreground_calls() this is never reset; the
  /// metrics snapshot exports it so fault-campaign cells show their
  /// injected-failure count alongside the cost numbers.
  uint64_t faults_fired() const { return faults_fired_; }

  // ---- Per-operation attribution (see obs/obs_registry.h) ----

  /// Attaches a metrics registry; every subsequent metered call is charged
  /// to the current operation label (or ObsRegistry::kUnattributed).
  /// Pass nullptr to detach. The registry must outlive the disk.
  void set_obs(ObsRegistry* obs) {
    obs_ = obs;
    attr_rec_ = nullptr;
  }
  ObsRegistry* obs() const { return obs_; }

  /// The registry OpScope should record an op's end into right now: the
  /// attached registry, or nullptr while attribution is suspended by an
  /// UnmeteredSection (whose ops the ledger does not see either).
  ObsRegistry* active_obs() const {
    return attribution_suspended_ == 0 ? obs_ : nullptr;
  }

  /// Current logical-operation label; managed by OpScope (nullptr when no
  /// operation is active). Switching labels drops the cached attribution
  /// record so the ledger entry is resolved once per operation, not once
  /// per metered call.
  const char* current_op() const { return current_op_; }
  void set_current_op(const char* label) {
    current_op_ = label;
    attr_rec_ = nullptr;
  }

  /// Re-entrant attribution suspension. While suspended, calls are metered
  /// into the global stats but not charged to any label; used by
  /// StorageSystem::UnmeteredSection, which restores the global stats on
  /// exit — so conservation is preserved on both sides of the section.
  /// Op ends and spans are suspended with attribution: no op is counted
  /// and no span opens inside a section, whose cost is about to be
  /// un-happened by SetStats.
  void SuspendAttribution() { ++attribution_suspended_; }
  void ResumeAttribution() { --attribution_suspended_; }

  // ---- Modeled-clock span tracing (see trace/trace_session.h) ----

  /// Attaches a trace session: OpScope and LOB_TRACE_SPAN sites then open
  /// op and phase spans on this disk's stats(), each a view of the calls
  /// metered inside it. Pass nullptr to detach. The session must outlive
  /// the disk's use of it.
  void set_trace(TraceSession* trace) { trace_ = trace; }

  /// The session span sites should record into right now: the attached
  /// session, or nullptr while attribution (and hence tracing) is
  /// suspended by an UnmeteredSection.
  TraceSession* active_trace() const {
    return attribution_suspended_ == 0 ? trace_ : nullptr;
  }

 private:
  struct Area {
    // Lazily allocated page images; a null entry reads as zeros. An image
    // is created by the WriteRun that fills it, never zeroed in advance.
    std::vector<std::unique_ptr<char[]>> pages;
  };

  /// One armed fault: the spec plus its progress counters.
  struct ArmedFault {
    FaultSpec spec;
    uint64_t matched_calls = 0;  ///< matching calls that succeeded so far
    bool exhausted = false;
  };

  [[nodiscard]]
  Status CheckRange(AreaId area, PageId first, uint32_t n_pages) const;
  char* PageData(Area& area, PageId page, bool create);

  /// Fault gate for one metered call. Returns a non-OK Status when an
  /// armed fault fires; otherwise advances the countdowns of all
  /// matching faults (and foreground_calls_) and returns OK. No-op while
  /// attribution is suspended.
  [[nodiscard]]
  Status CheckFaults(bool is_read, AreaId area, PageId first,
                     uint32_t n_pages);

  /// Meters one successful call: accumulates into the global stats and
  /// charges the current operation in the attached registry.
  void AccountCall(bool is_read, uint32_t n_pages);

  StorageConfig config_;
  std::vector<Area> areas_;
  IoStats stats_;
  std::vector<ArmedFault> faults_;
  uint64_t foreground_calls_ = 0;
  uint64_t faults_fired_ = 0;
  ObsRegistry* obs_ = nullptr;
  TraceSession* trace_ = nullptr;
  const char* current_op_ = nullptr;
  uint32_t attribution_suspended_ = 0;
  // Attribution memo: ledger record of the current op, resolved on the
  // first metered call after a label change (see set_current_op) and
  // dropped when the registry resets its ledger (generation check).
  void* attr_rec_ = nullptr;
  uint64_t attr_gen_ = 0;
};

}  // namespace lob

#endif  // LOB_IOMODEL_SIM_DISK_H_
