#include "workload/workload.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "trace/timeline.h"

namespace lob {

void FillBytes(Rng* rng, uint64_t n, std::string* out) {
  out->resize(n);
  // 8 bytes of entropy per word is plenty for storage-layer content.
  uint64_t i = 0;
  while (i + 8 <= n) {
    const uint64_t v = rng->Next();
    std::memcpy(out->data() + i, &v, 8);
    i += 8;
  }
  while (i < n) {
    (*out)[i++] = static_cast<char>(rng->Next() & 0xff);
  }
}

void FillBytes(Rng* rng, uint64_t n, std::string* out, NoZeroInit) {
  // Hot-path variant: produces exactly the byte stream (and Rng
  // consumption) of the overload above, but growth past the current size
  // is appended from a filled stack block, so the tail is written once
  // instead of zeroed by resize() and then overwritten. The common case
  // (a reused buffer already at capacity) is a straight word-store loop.
  if (out->size() > n) out->resize(n);  // shrink; capacity is retained
  out->reserve(n);  // appends below never reallocate, so data() is stable
  const uint64_t in_place = out->size();
  char* dst = out->data();
  const uint64_t word_bytes = n & ~uint64_t{7};
  uint64_t i = 0;
  // Words that land entirely inside the existing buffer: store directly.
  const uint64_t direct = std::min(in_place & ~uint64_t{7}, word_bytes);
  for (; i < direct; i += 8) {
    const uint64_t v = rng->Next();
    std::memcpy(dst + i, &v, 8);
  }
  // At most one word straddles the in-place/appended boundary.
  if (i < word_bytes && i < in_place) {
    const uint64_t v = rng->Next();
    char word[8];
    std::memcpy(word, &v, 8);
    const uint64_t head = in_place - i;
    std::memcpy(dst + i, word, head);
    out->append(word + head, 8 - head);
    i += 8;
  }
  // Appended words, staged a block at a time.
  char block[1024];
  while (i < word_bytes) {
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(sizeof(block), word_bytes - i));
    for (size_t k = 0; k < take; k += 8) {
      const uint64_t v = rng->Next();
      std::memcpy(block + k, &v, 8);
    }
    out->append(block, take);
    i += take;
  }
  // Sub-word tail: one draw per byte, as in the overload above.
  while (i < n) {
    const char c = static_cast<char>(rng->Next() & 0xff);
    if (i < in_place) {
      dst[i] = c;
    } else {
      out->push_back(c);
    }
    ++i;
  }
}

StatusOr<PhaseResult> BuildObject(StorageSystem* sys, LargeObjectManager* mgr,
                                  ObjectId id, uint64_t total_bytes,
                                  uint64_t append_bytes, uint64_t seed) {
  LOB_CHECK_GT(append_bytes, 0u);
  Rng rng(seed);
  // One capacity-retaining buffer for the whole build phase: after the
  // first chunk, FillBytes overwrites it in place (no resize/zero-fill).
  std::string chunk;
  const IoStats before = sys->stats();
  uint64_t written = 0;
  while (written < total_bytes) {
    const uint64_t take = std::min(append_bytes, total_bytes - written);
    FillBytes(&rng, take, &chunk, NoZeroInit{});
    LOB_RETURN_IF_ERROR(mgr->Append(id, chunk));
    written += take;
  }
  return PhaseResult{IoStats::Delta(before, sys->stats())};
}

StatusOr<PhaseResult> SequentialScan(StorageSystem* sys,
                                     LargeObjectManager* mgr, ObjectId id,
                                     uint64_t scan_bytes) {
  LOB_CHECK_GT(scan_bytes, 0u);
  auto size = mgr->Size(id);
  if (!size.ok()) return size.status();
  std::string buf;
  const IoStats before = sys->stats();
  uint64_t done = 0;
  while (done < *size) {
    const uint64_t take = std::min(scan_bytes, *size - done);
    LOB_RETURN_IF_ERROR(mgr->Read(id, done, take, &buf));
    done += take;
  }
  return PhaseResult{IoStats::Delta(before, sys->stats())};
}

StatusOr<double> CurrentUtilization(StorageSystem* sys,
                                    LargeObjectManager* mgr, ObjectId id) {
  auto size = mgr->Size(id);
  if (!size.ok()) return size.status();
  const uint64_t allocated = sys->AllocatedBytes();
  if (allocated == 0) return 1.0;
  return static_cast<double>(*size) / static_cast<double>(allocated);
}

Status CollectTimelineSample(StorageSystem* sys, LargeObjectManager* mgr,
                             ObjectId id, uint32_t ops_done,
                             TimelineSampler* sampler) {
  TimelineSample s;
  s.ops_done = ops_done;
  // The workload's own cumulative modeled cost, captured before the
  // unmetered state walk below (whose I/O is restored away anyway).
  s.modeled_ms = sys->stats().ms;
  StorageSystem::UnmeteredSection unmetered(sys);
  // The walk reads index pages through the buffer pool; snapshotting the
  // pool around it keeps the eviction order — and thus every measured
  // cost after the sample — identical whether or not sampling runs.
  const BufferPool::State pool_state = sys->pool()->SaveState();
  struct PoolRestore {
    StorageSystem* sys;
    const BufferPool::State* state;
    ~PoolRestore() { sys->pool()->RestoreState(*state); }
  } pool_restore{sys, &pool_state};
  auto size = mgr->Size(id);
  if (!size.ok()) return size.status();
  s.object_bytes = *size;
  s.allocated_bytes = sys->AllocatedBytes();
  s.utilization = s.allocated_bytes == 0
                      ? 1.0
                      : static_cast<double>(s.object_bytes) /
                            static_cast<double>(s.allocated_bytes);
  uint64_t seg_min = UINT64_MAX;
  uint64_t seg_max = 0;
  uint64_t seg_bytes_sum = 0;
  LOB_RETURN_IF_ERROR(
      mgr->VisitSegments(id, [&](uint64_t bytes, uint32_t pages) {
        (void)pages;
        s.segments++;
        seg_bytes_sum += bytes;
        seg_min = std::min(seg_min, bytes);
        seg_max = std::max(seg_max, bytes);
        return Status::OK();
      }));
  if (s.segments > 0) {
    s.seg_bytes_min = seg_min;
    s.seg_bytes_max = seg_max;
    s.seg_bytes_mean = static_cast<double>(seg_bytes_sum) /
                       static_cast<double>(s.segments);
  }
  s.free_pages =
      sys->leaf_area()->free_pages() + sys->meta_area()->free_pages();
  s.largest_free_extent = std::max(sys->leaf_area()->LargestFreeExtent(),
                                   sys->meta_area()->LargestFreeExtent());
  sys->leaf_area()->AccumulateFreeChunks(&s.free_extents);
  sys->meta_area()->AccumulateFreeChunks(&s.free_extents);
  sampler->Add(s);
  return Status::OK();
}

StatusOr<std::vector<MixPoint>> RunUpdateMix(StorageSystem* sys,
                                             LargeObjectManager* mgr,
                                             ObjectId id,
                                             const MixSpec& spec) {
  Rng rng(spec.seed);
  std::vector<MixPoint> points;
  std::string buf;

  if (spec.timeline != nullptr) {
    // Post-build baseline: the timeline's op-0 sample.
    LOB_RETURN_IF_ERROR(
        CollectTimelineSample(sys, mgr, id, 0, spec.timeline));
  }

  // Delete sizes mirror the immediately preceding insert (paper 4.4).
  uint64_t last_insert_size =
      rng.Uniform(spec.mean_op_bytes / 2, spec.mean_op_bytes * 3 / 2);

  MixPoint window;
  double window_read_ms = 0, window_insert_ms = 0, window_delete_ms = 0;

  for (uint32_t op = 1; op <= spec.total_ops; ++op) {
    auto size_or = mgr->Size(id);
    if (!size_or.ok()) return size_or.status();
    const uint64_t size = *size_or;
    const double p = rng.NextDouble();
    const IoStats before = sys->stats();
    if (p < spec.read_frac) {
      uint64_t n = rng.Uniform(spec.mean_op_bytes / 2,
                               spec.mean_op_bytes * 3 / 2);
      n = std::min(n, size);
      const uint64_t off = size > n ? rng.Uniform(0, size - n) : 0;
      LOB_RETURN_IF_ERROR(mgr->Read(id, off, n, &buf));
      window.reads++;
      window_read_ms += IoStats::Delta(before, sys->stats()).ms;
    } else if (p < spec.read_frac + spec.insert_frac) {
      const uint64_t n = rng.Uniform(spec.mean_op_bytes / 2,
                                     spec.mean_op_bytes * 3 / 2);
      const uint64_t off = rng.Uniform(0, size);
      FillBytes(&rng, n, &buf, NoZeroInit{});
      LOB_RETURN_IF_ERROR(mgr->Insert(id, off, buf));
      last_insert_size = n;
      window.inserts++;
      window_insert_ms += IoStats::Delta(before, sys->stats()).ms;
    } else {
      uint64_t n = std::min(last_insert_size, size);
      if (n > 0) {
        const uint64_t off = rng.Uniform(0, size - n);
        LOB_RETURN_IF_ERROR(mgr->Delete(id, off, n));
        window.deletes++;
        window_delete_ms += IoStats::Delta(before, sys->stats()).ms;
      }
    }
    if (op % spec.window_ops == 0 || op == spec.total_ops) {
      window.ops_done = op;
      window.avg_read_ms =
          window.reads ? window_read_ms / window.reads : 0;
      window.avg_insert_ms =
          window.inserts ? window_insert_ms / window.inserts : 0;
      window.avg_delete_ms =
          window.deletes ? window_delete_ms / window.deletes : 0;
      auto util = CurrentUtilization(sys, mgr, id);
      if (!util.ok()) return util.status();
      window.utilization = *util;
      points.push_back(window);
      window = MixPoint();
      window_read_ms = window_insert_ms = window_delete_ms = 0;
    }
    // After the window block, so the final sample's utilization is the
    // value the final MixPoint just recorded (Fig 7/8 endpoints).
    if (spec.timeline != nullptr &&
        (spec.timeline->WantsSample(op) || op == spec.total_ops)) {
      LOB_RETURN_IF_ERROR(
          CollectTimelineSample(sys, mgr, id, op, spec.timeline));
    }
  }
  return points;
}

bool FlagPresent(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

std::string FlagValueString(int argc, char** argv, const std::string& name,
                            const std::string& def) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return def;
}

}  // namespace lob
