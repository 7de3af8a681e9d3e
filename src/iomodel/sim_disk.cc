#include "iomodel/sim_disk.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/obs_registry.h"

namespace lob {

std::string IoStats::ToString() const {
  char buf[200];
  std::snprintf(
      buf, sizeof(buf),
      "reads=%llu writes=%llu pages_r=%llu pages_w=%llu ms=%.1f",
      static_cast<unsigned long long>(read_calls),
      static_cast<unsigned long long>(write_calls),
      static_cast<unsigned long long>(pages_read),
      static_cast<unsigned long long>(pages_written), ms);
  return buf;
}

SimDisk::SimDisk(const StorageConfig& config) : config_(config) {
  LOB_CHECK_GT(config_.page_size, 0u);
}

AreaId SimDisk::CreateArea() {
  areas_.emplace_back();
  return static_cast<AreaId>(areas_.size() - 1);
}

void SimDisk::ResetStats() {
  stats_ = IoStats();
  if (obs_ != nullptr) obs_->ResetAttribution();
}

void SimDisk::AccountCall(bool is_read, uint32_t n_pages) {
  IoStats call;
  if (is_read) {
    call.read_calls = 1;
    call.pages_read = n_pages;
  } else {
    call.write_calls = 1;
    call.pages_written = n_pages;
  }
  call.ms = kSeekMs + n_pages * config_.PageTransferMs();
  stats_ += call;
  if (attribution_suspended_ == 0 && obs_ != nullptr) {
    if (attr_rec_ == nullptr || attr_gen_ != obs_->attribution_generation()) {
      attr_rec_ = obs_->AttributionRecord(
          current_op_ != nullptr ? current_op_ : ObsRegistry::kUnattributed);
      attr_gen_ = obs_->attribution_generation();
    }
    static_cast<ObsRegistry::OpRecord*>(attr_rec_)->io += call;
  }
}

void SimDisk::ArmFault(const FaultSpec& spec) {
  ArmedFault armed;
  armed.spec = spec;
  faults_.push_back(std::move(armed));
}

uint32_t SimDisk::armed_faults() const {
  uint32_t n = 0;
  for (const ArmedFault& f : faults_) {
    if (!f.exhausted) ++n;
  }
  return n;
}

Status SimDisk::CheckFaults(bool is_read, AreaId area, PageId first,
                            uint32_t n_pages) {
  // Unmetered sections (audit walks, fsck, timeline sampling) are outside
  // the fault model entirely: they neither fire faults nor advance any
  // countdown. See the contract in sim_disk.h.
  if (attribution_suspended_ != 0) return Status::OK();
  if (faults_.empty()) {
    ++foreground_calls_;
    return Status::OK();
  }
  const PageId last = first + n_pages - 1;
  const char* op = current_op_ != nullptr ? current_op_ : "";
  auto matches = [&](const FaultSpec& s) {
    if (is_read ? !s.match_reads : !s.match_writes) return false;
    if (!s.op_prefix.empty() &&
        std::strncmp(op, s.op_prefix.c_str(), s.op_prefix.size()) != 0) {
      return false;
    }
    if (s.match_range &&
        (s.area != area || last < s.first_page || first > s.last_page)) {
      return false;
    }
    return true;
  };
  // First pass: does an armed, due fault fire on this call? Earliest-armed
  // wins; a fired call advances no counters (it "never happened" in the
  // cost model).
  for (ArmedFault& f : faults_) {
    if (f.exhausted || !matches(f.spec)) continue;
    if (f.matched_calls < f.spec.after_calls) continue;
    if (f.spec.kind == FaultKind::kOneShot) f.exhausted = true;
    ++faults_fired_;
    return Status::Internal(f.spec.message);
  }
  // Second pass: the call succeeds; advance every matching countdown.
  for (ArmedFault& f : faults_) {
    if (!f.exhausted && matches(f.spec)) ++f.matched_calls;
  }
  ++foreground_calls_;
  return Status::OK();
}

Status SimDisk::CheckRange(AreaId area, PageId first, uint32_t n_pages) const {
  if (area >= areas_.size()) {
    return Status::InvalidArgument("no such area");
  }
  if (n_pages == 0) {
    return Status::InvalidArgument("zero-page I/O call");
  }
  if (first == kInvalidPage || first > kInvalidPage - n_pages) {
    return Status::InvalidArgument("page range overflow");
  }
  return Status::OK();
}

char* SimDisk::PageData(Area& area, PageId page, bool create) {
  if (page >= area.pages.size()) {
    if (!create) return nullptr;
    if (page >= area.pages.capacity()) {
      // Geometric growth: append-heavy workloads extend the area one page
      // at a time, and per-element reallocation is quadratic on standard
      // libraries that only guarantee amortized growth for push_back.
      area.pages.reserve(
          std::max<size_t>(size_t{page} + 1, area.pages.capacity() * 2));
    }
    area.pages.resize(page + 1);
  }
  auto& slot = area.pages[page];
  if (slot == nullptr) {
    if (!create) return nullptr;
    // Left uninitialised: the only creating caller, WriteRun, writes every
    // byte of the image before anything can read it (a borrowed self-view
    // source names an image that already exists, never a new one).
    slot = std::make_unique_for_overwrite<char[]>(config_.page_size);
  }
  return slot.get();
}

Status SimDisk::ReadRun(AreaId area, PageId first, uint32_t n_pages,
                        PageRef* refs) {
  LOB_RETURN_IF_ERROR(CheckRange(area, first, n_pages));
  LOB_RETURN_IF_ERROR(CheckFaults(/*is_read=*/true, area, first, n_pages));
  Area& a = areas_[area];
  for (uint32_t i = 0; i < n_pages; ++i) {
    refs[i].data = PageData(a, first + i, /*create=*/false);
  }
  AccountCall(/*is_read=*/true, n_pages);
  return Status::OK();
}

Status SimDisk::WriteRun(AreaId area, PageId first, uint32_t n_pages,
                         const char* const* srcs, MutPageRef* imgs) {
  LOB_RETURN_IF_ERROR(CheckRange(area, first, n_pages));
  LOB_RETURN_IF_ERROR(CheckFaults(/*is_read=*/false, area, first, n_pages));
  Area& a = areas_[area];
  for (uint32_t i = 0; i < n_pages; ++i) {
    char* dst = PageData(a, first + i, /*create=*/true);
    if (srcs[i] == nullptr) {
      std::memset(dst, 0, config_.page_size);
    } else if (srcs[i] != dst) {  // a borrowed self-view needs no copy
      std::memcpy(dst, srcs[i], config_.page_size);
    }
    if (imgs != nullptr) imgs[i].data = dst;
  }
  AccountCall(/*is_read=*/false, n_pages);
  return Status::OK();
}

const char* SimDisk::PeekPage(AreaId area, PageId page) const {
  if (area >= areas_.size()) return nullptr;
  const Area& a = areas_[area];
  if (page >= a.pages.size() || a.pages[page] == nullptr) return nullptr;
  return a.pages[page].get();
}

PageId SimDisk::AreaHighWater(AreaId area) const {
  if (area >= areas_.size()) return 0;
  return static_cast<PageId>(areas_[area].pages.size());
}

}  // namespace lob
