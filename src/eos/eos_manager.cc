#include "eos/eos_manager.h"

#include <algorithm>
#include <cstring>

#include "buffer/staged_bytes.h"
#include "common/logging.h"
#include "trace/trace_span.h"
#include "common/math_util.h"

namespace lob {

EosManager::EosManager(StorageSystem* sys, const EosOptions& options)
    : sys_(sys), options_(options) {
  LOB_CHECK_GE(options_.threshold_pages, 1u);
  options_.max_segment_pages = std::min(options_.max_segment_pages,
                                        sys->leaf_area()->max_segment_pages());
  TreeConfig tc;
  tc.pool = sys_->pool();
  tc.meta_area = sys_->meta_area();
  tc.limits = options_.limits;
  tc.shadowing = sys_->config().shadowing;
  tree_ = std::make_unique<PositionalTree>(tc);
}

StatusOr<ObjectId> EosManager::Create() {
  OpScope obs_scope(sys_->disk(), "eos.create");
  auto id = tree_->CreateObject(static_cast<uint8_t>(Engine::kEos));
  if (!id.ok()) return id;
  LOB_RETURN_IF_ERROR(tree_->SetAux(*id, 0));
  return id;
}

StatusOr<uint64_t> EosManager::Size(ObjectId id) {
  OpScope obs_scope(sys_->disk(), "eos.size");
  return tree_->Size(id);
}

Status EosManager::ReadLeaf(const PositionalTree::LeafInfo& leaf,
                            uint64_t off, uint64_t n, char* dst) {
  return sys_->pool()->ReadSegmentRange(leaf_area_id(), leaf.page, leaf.bytes,
                                        off, n, dst);
}

Status EosManager::FreePages(PageId page, uint32_t pages) {
  if (pages == 0) return Status::OK();
  LOB_RETURN_IF_ERROR(sys_->pool()->Invalidate(leaf_area_id(), page, pages));
  return sys_->leaf_area()->Free(page, pages);
}

StatusOr<ScopedExtent> EosManager::WriteNewSegment(std::string_view content,
                                                   OpContext* ctx) {
  LOB_CHECK(!content.empty());
  const uint32_t pages = PagesFor(content.size());
  LOB_CHECK_LE(pages, options_.max_segment_pages);
  auto ext = ScopedExtent::Allocate(sys_->leaf_area(), sys_->pool(), pages);
  if (!ext.ok()) return ext.status();
  (void)ctx;
  // A failed write rolls the allocation back via the guard.
  LOB_RETURN_IF_ERROR(sys_->pool()->WriteFreshSegment(
      leaf_area_id(), ext->first_page(), content.data(), content.size()));
  return ext;
}

Status EosManager::Destroy(ObjectId id) {
  OpScope obs_scope(sys_->disk(), "eos.destroy");
  OpContext ctx(sys_->pool(), sys_->arena());
  LOB_RETURN_IF_ERROR(TrimLastSlack(id, &ctx));
  std::vector<std::pair<PageId, uint32_t>> segs;
  LOB_RETURN_IF_ERROR(tree_->VisitLeaves(id, [&](const auto& leaf) {
    segs.push_back({leaf.page, PagesFor(leaf.bytes)});
    return Status::OK();
  }));
  // Destroy the index first: if its walk fails, the object is still
  // well-formed and the destroy can be retried. The segment frees after
  // it cannot fail under I/O faults.
  LOB_RETURN_IF_ERROR(tree_->DestroyObject(id));
  for (const auto& [page, pages] : segs) {
    LOB_RETURN_IF_ERROR(FreePages(page, pages));
  }
  return ctx.Finish();
}

Status EosManager::Read(ObjectId id, uint64_t offset, uint64_t n,
                        std::string* out) {
  OpScope obs_scope(sys_->disk(), "eos.read");
  out->clear();
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  if (!RangeWithin(offset, n, *size)) {
    return Status::OutOfRange("read past object end");
  }
  return FillRead(out, n, [&](char* dst) {
    uint64_t done = 0;
    while (done < n) {
      auto leaf = tree_->FindLeaf(id, offset + done);
      if (!leaf.ok()) return leaf.status();
      const uint64_t local = offset + done - leaf->start;
      const uint64_t take = std::min<uint64_t>(leaf->bytes - local, n - done);
      LOB_RETURN_IF_ERROR(ReadLeaf(*leaf, local, take, dst + done));
      done += take;
    }
    return Status::OK();
  });
}

Status EosManager::Append(ObjectId id, std::string_view data) {
  if (data.empty()) return Status::OK();
  OpScope obs_scope(sys_->disk(), "eos.append");
  OpContext ctx(sys_->pool(), sys_->arena());
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  const uint64_t P = page_size();
  uint64_t pos = 0;
  uint32_t last_alloc = 0;

  if (*size > 0) {
    auto aux = tree_->GetAux(id);
    if (!aux.ok()) return aux.status();
    auto last = tree_->LastLeaf(id);
    if (!last.ok()) return last.status();
    // aux == 0 means every segment is exactly sized (no growth slack).
    last_alloc = *aux != 0 ? *aux : PagesFor(last->bytes);
    LOB_CHECK_GE(static_cast<uint64_t>(last_alloc) * P, last->bytes);
    const uint64_t space = static_cast<uint64_t>(last_alloc) * P - last->bytes;
    if (space > 0) {
      // Fill the rightmost page / remaining allocation in place; the
      // segment is not shadowed for pure appends (paper 3.3).
      const uint64_t take = std::min<uint64_t>(space, data.size());
      LOB_RETURN_IF_ERROR(sys_->pool()->WriteSegmentRange(
          leaf_area_id(), last->page, last->bytes, last->bytes, take,
          data.data()));
      const PageId p0 = last->page + static_cast<PageId>(last->bytes / P);
      const PageId p1 =
          last->page + static_cast<PageId>((last->bytes + take - 1) / P);
      ctx.DeferFlush(leaf_area_id(), p0, p1 - p0 + 1);
      LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
          id, last->start, static_cast<int64_t>(take), kInvalidPage, &ctx));
      pos = take;
    }
  }

  // Starburst-pattern growth: each new segment doubles the previous
  // allocation, capped at the maximum; the first is sized by the first
  // append.
  uint64_t at = *size + pos;
  while (pos < data.size()) {
    const uint64_t rem = data.size() - pos;
    uint32_t pages;
    if (last_alloc == 0) {
      pages = static_cast<uint32_t>(
          std::min<uint64_t>(CeilDiv(rem, P), options_.max_segment_pages));
    } else {
      pages = std::min(last_alloc * 2, options_.max_segment_pages);
    }
    auto ext = ScopedExtent::Allocate(sys_->leaf_area(), sys_->pool(), pages);
    if (!ext.ok()) return ext.status();
    const uint64_t take = std::min<uint64_t>(
        static_cast<uint64_t>(pages) * P, rem);
    LOB_RETURN_IF_ERROR(sys_->pool()->WriteFreshSegment(
        leaf_area_id(), ext->first_page(), data.data() + pos, take));
    LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
        id, at, {static_cast<uint32_t>(take), ext->first_page()}, &ctx));
    ext->Commit();
    // Keep the aux word (allocated pages of the last segment) in step with
    // every inserted segment: if a later iteration fails, the object's
    // accounting still describes exactly what the tree references. The
    // root is hot, so this costs no I/O.
    LOB_RETURN_IF_ERROR(tree_->SetAux(id, pages));
    last_alloc = pages;
    at += take;
    pos += take;
  }
  LOB_RETURN_IF_ERROR(tree_->SetAux(id, last_alloc));
  return ctx.Finish();
}

Status EosManager::TrimLastSlack(ObjectId id, OpContext* ctx) {
  (void)ctx;
  // aux == 0 is the common post-update state: every segment exactly sized,
  // nothing to trim and no rightmost-path lookup needed.
  auto aux = tree_->GetAux(id);
  if (!aux.ok()) return aux.status();
  if (*aux == 0) return Status::OK();
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  if (*size == 0) return tree_->SetAux(id, 0);
  auto last = tree_->LastLeaf(id);
  if (!last.ok()) return last.status();
  const uint32_t needed = PagesFor(last->bytes);
  // Commit the new accounting (aux = 0: exactly sized) before releasing
  // the slack pages. In the old order a fault between the free and the
  // SetAux left aux claiming pages the allocator had already reclaimed —
  // a double-allocation waiting to happen once they were reused. The
  // frees themselves cannot fail under I/O faults.
  LOB_RETURN_IF_ERROR(tree_->SetAux(id, 0));
  if (*aux > needed) {
    LOB_RETURN_IF_ERROR(FreePages(last->page + needed, *aux - needed));
  }
  return Status::OK();
}

Status EosManager::RefreshAux(ObjectId id) {
  // Structural updates leave every segment exactly sized.
  return tree_->SetAux(id, 0);
}

Status EosManager::InsertFreshSegments(ObjectId id, uint64_t at,
                                       std::string_view data,
                                       OpContext* ctx) {
  // New bytes go into as few segments as possible (paper 4.4.2: a 100K
  // insert lands in one 25-page leaf regardless of the threshold).
  uint64_t pos = 0;
  const uint64_t max_bytes =
      static_cast<uint64_t>(options_.max_segment_pages) * page_size();
  while (pos < data.size()) {
    const uint64_t take = std::min<uint64_t>(data.size() - pos, max_bytes);
    auto ext = WriteNewSegment(data.substr(pos, take), ctx);
    if (!ext.ok()) return ext.status();
    LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
        id, at, {static_cast<uint32_t>(take), ext->first_page()}, ctx));
    ext->Commit();
    at += take;
    pos += take;
  }
  return Status::OK();
}

Status EosManager::Insert(ObjectId id, uint64_t offset,
                          std::string_view data) {
  if (data.empty()) return Status::OK();
  OpScope obs_scope(sys_->disk(), "eos.insert");
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  if (offset > *size) return Status::OutOfRange("insert past object end");
  if (offset == *size) return Append(id, data);

  OpContext ctx(sys_->pool(), sys_->arena());
  LOB_RETURN_IF_ERROR(TrimLastSlack(id, &ctx));
  auto leaf = tree_->FindLeaf(id, offset);
  if (!leaf.ok()) return leaf.status();
  const uint64_t P = page_size();
  const uint64_t local = offset - leaf->start;
  const uint64_t tp = static_cast<uint64_t>(options_.threshold_pages) * P;

  if (leaf->bytes + data.size() <= 2 * tp + 2 * P &&
      leaf->bytes + data.size() <=
          static_cast<uint64_t>(options_.max_segment_pages) * P) {
    // Small result: splitting would immediately trigger a threshold merge
    // back into one segment, so splice-rewrite the segment directly (one
    // read, one shadowed write).
    auto content = StageSplice(sys_->pool(), leaf_area_id(), leaf->page,
                               leaf->bytes, local, 0, data);
    if (!content.ok()) return content.status();
    // Install the rewritten segment in the tree before freeing the old
    // one: freeing first left the tree pointing at reclaimed pages if the
    // repoint failed.
    auto np = WriteNewSegment(*content, &ctx);
    if (!np.ok()) return np.status();
    LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
        id, leaf->start, static_cast<int64_t>(data.size()),
        np->first_page(), &ctx));
    np->Commit();
    LOB_RETURN_IF_ERROR(FreePages(leaf->page, PagesFor(leaf->bytes)));
    LOB_RETURN_IF_ERROR(
        EnforceThreshold(id, offset, offset + data.size(), &ctx));
    LOB_RETURN_IF_ERROR(RefreshAux(id));
    return ctx.Finish();
  }

  if (local > 0 && local % P != 0) {
    // Unaligned split. Only the bytes that straddle the split page have to
    // move: the left part keeps its pages in place (its last page now ends
    // mid-page), the whole pages after the split page stay in place as
    // their own segment, and the new bytes plus the straddling bytes are
    // written together into fresh segments. This is why a 10K insert
    // creates a 3-page (12K) leaf in the paper's 4.4.2 discussion, and why
    // EOS utilization at T=1 matches 1-page ESM leaves (4.4.1).
    const uint64_t split_page_end = CeilDiv(local, P) * P;
    const uint64_t straddle =
        std::min<uint64_t>(split_page_end, leaf->bytes) - local;
    const uint64_t right_pages_bytes =
        leaf->bytes > split_page_end ? leaf->bytes - split_page_end : 0;
    StagedBytes moved(data.size() + straddle);
    std::memcpy(moved.data(), data.data(), data.size());
    LOB_RETURN_IF_ERROR(
        ReadLeaf(*leaf, local, straddle, moved.data() + data.size()));
    // Shrink the original leaf to the left part (pages stay put).
    LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
        id, leaf->start, -static_cast<int64_t>(straddle + right_pages_bytes),
        kInvalidPage, &ctx));
    // Whole pages right of the split page become their own segment.
    if (right_pages_bytes > 0) {
      const PageId right_page =
          leaf->page + static_cast<PageId>(split_page_end / P);
      LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
          id, leaf->start + local,
          {static_cast<uint32_t>(right_pages_bytes), right_page}, &ctx));
    }
    // New bytes followed by the straddling bytes, in fresh segments.
    LOB_RETURN_IF_ERROR(
        InsertFreshSegments(id, leaf->start + local, moved, &ctx));
  } else {
    if (local > 0) {
      // Page-aligned split: the right part stays in place as its own
      // segment; no data moves.
      const uint64_t rbytes = leaf->bytes - local;
      const PageId right_page = leaf->page + static_cast<PageId>(local / P);
      LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
          id, leaf->start, -static_cast<int64_t>(rbytes), kInvalidPage,
          &ctx));
      LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
          id, leaf->start + local,
          {static_cast<uint32_t>(rbytes), right_page}, &ctx));
    }
    // New bytes go before the right part (or before the untouched leaf
    // when local == 0), in as few segments as possible.
    LOB_RETURN_IF_ERROR(InsertFreshSegments(id, offset, data, &ctx));
  }
  LOB_RETURN_IF_ERROR(
      EnforceThreshold(id, offset, offset + data.size(), &ctx));
  LOB_RETURN_IF_ERROR(RefreshAux(id));
  return ctx.Finish();
}

Status EosManager::Delete(ObjectId id, uint64_t offset, uint64_t n) {
  if (n == 0) return Status::OK();
  OpScope obs_scope(sys_->disk(), "eos.delete");
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  if (!RangeWithin(offset, n, *size)) {
    return Status::OutOfRange("delete past object end");
  }

  OpContext ctx(sys_->pool(), sys_->arena());
  LOB_RETURN_IF_ERROR(TrimLastSlack(id, &ctx));
  const uint64_t P = page_size();
  uint64_t remaining = n;
  while (remaining > 0) {
    auto leaf = tree_->FindLeaf(id, offset);
    if (!leaf.ok()) return leaf.status();
    const uint64_t local = offset - leaf->start;
    const uint64_t take = std::min<uint64_t>(leaf->bytes - local, remaining);
    const uint32_t old_pages = PagesFor(leaf->bytes);

    if (local == 0 && take == leaf->bytes) {
      // Whole segment disappears.
      auto removed = tree_->RemoveLeaf(id, leaf->start, &ctx);
      if (!removed.ok()) return removed.status();
      LOB_RETURN_IF_ERROR(FreePages(removed->page, old_pages));
    } else if (local + take == leaf->bytes) {
      // Suffix removal: trim tail pages in place.
      const uint32_t keep = PagesFor(local);
      LOB_RETURN_IF_ERROR(FreePages(leaf->page + keep, old_pages - keep));
      LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
          id, leaf->start, -static_cast<int64_t>(take), kInvalidPage, &ctx));
    } else if (local == 0) {
      // Prefix removal: whole surviving pages stay in place; only the
      // bytes straddling the first surviving page move.
      if (take % P == 0) {
        const uint32_t drop = static_cast<uint32_t>(take / P);
        LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
            id, leaf->start, -static_cast<int64_t>(take),
            leaf->page + drop, &ctx));
        LOB_RETURN_IF_ERROR(FreePages(leaf->page, drop));
      } else {
        const uint64_t boundary = CeilDiv(take, P) * P;
        const uint64_t straddle =
            std::min<uint64_t>(boundary, leaf->bytes) - take;
        const uint64_t right_pages_bytes =
            leaf->bytes > boundary ? leaf->bytes - boundary : 0;
        StagedBytes moved(straddle);
        LOB_RETURN_IF_ERROR(ReadLeaf(*leaf, take, straddle, moved.data()));
        auto np = WriteNewSegment(moved, &ctx);
        if (!np.ok()) return np.status();
        LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
            id, leaf->start,
            -static_cast<int64_t>(take + right_pages_bytes),
            np->first_page(), &ctx));
        np->Commit();
        if (right_pages_bytes > 0) {
          LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
              id, leaf->start + straddle,
              {static_cast<uint32_t>(right_pages_bytes),
               leaf->page + static_cast<PageId>(boundary / P)},
              &ctx));
        }
        // Pages up to and including the straddle page are gone.
        LOB_RETURN_IF_ERROR(
            FreePages(leaf->page, static_cast<uint32_t>(boundary / P)));
      }
    } else if (leaf->bytes - take <=
               2 * static_cast<uint64_t>(options_.threshold_pages) * P +
                   2 * P) {
      // Small remainder: rewriting the segment directly beats splitting
      // and re-merging under the threshold rule.
      auto content = StageSplice(sys_->pool(), leaf_area_id(), leaf->page,
                                 leaf->bytes, local, take, {});
      if (!content.ok()) return content.status();
      // Repoint the tree first, then free the old pages (see Insert).
      auto np = WriteNewSegment(*content, &ctx);
      if (!np.ok()) return np.status();
      LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
          id, leaf->start, -static_cast<int64_t>(take), np->first_page(),
          &ctx));
      np->Commit();
      LOB_RETURN_IF_ERROR(FreePages(leaf->page, old_pages));
    } else {
      // Removal strictly inside one segment: the left part stays; the
      // right part's whole pages stay in place and only the bytes
      // straddling the page where the removed range ends are copied out.
      const uint64_t end = local + take;
      const uint32_t keep = PagesFor(local);
      if (end % P == 0) {
        const uint64_t rbytes = leaf->bytes - end;
        const PageId right_page =
            leaf->page + static_cast<PageId>(end / P);
        const uint32_t right_first = static_cast<uint32_t>(end / P);
        if (right_first > keep) {
          LOB_RETURN_IF_ERROR(
              FreePages(leaf->page + keep, right_first - keep));
        }
        LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
            id, leaf->start, -static_cast<int64_t>(take + rbytes),
            kInvalidPage, &ctx));
        LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
            id, leaf->start + local,
            {static_cast<uint32_t>(rbytes), right_page}, &ctx));
      } else {
        const uint64_t boundary = CeilDiv(end, P) * P;
        const uint64_t straddle =
            std::min<uint64_t>(boundary, leaf->bytes) - end;
        const uint64_t right_pages_bytes =
            leaf->bytes > boundary ? leaf->bytes - boundary : 0;
        StagedBytes moved(straddle);
        LOB_RETURN_IF_ERROR(ReadLeaf(*leaf, end, straddle, moved.data()));
        LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
            id, leaf->start,
            -static_cast<int64_t>(take + straddle + right_pages_bytes),
            kInvalidPage, &ctx));
        if (right_pages_bytes > 0) {
          LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
              id, leaf->start + local,
              {static_cast<uint32_t>(right_pages_bytes),
               leaf->page + static_cast<PageId>(boundary / P)},
              &ctx));
        }
        if (!moved.empty()) {
          auto np = WriteNewSegment(moved, &ctx);
          if (!np.ok()) return np.status();
          LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
              id, leaf->start + local,
              {static_cast<uint32_t>(straddle), np->first_page()}, &ctx));
          np->Commit();
        }
        // Free the pages between the left part and the right pages
        // (including the straddle page, whose live bytes moved out).
        const uint32_t middle_end = static_cast<uint32_t>(boundary / P);
        const uint32_t middle_cap =
            std::min(middle_end, old_pages);
        if (middle_cap > keep) {
          LOB_RETURN_IF_ERROR(
              FreePages(leaf->page + keep, middle_cap - keep));
        }
      }
    }
    remaining -= take;
  }
  LOB_RETURN_IF_ERROR(EnforceThreshold(id, offset, offset, &ctx));
  LOB_RETURN_IF_ERROR(RefreshAux(id));
  return ctx.Finish();
}

Status EosManager::ShuffleLeaves(ObjectId id,
                                 const PositionalTree::LeafInfo& a,
                                 const PositionalTree::LeafInfo& b,
                                 OpContext* ctx) {
  LOB_TRACE_SPAN(sys_->disk(), "seg.shuffle");
  const uint64_t P = page_size();
  const uint64_t tp = static_cast<uint64_t>(options_.threshold_pages) * P;
  if (a.bytes < tp) {
    // Left is small: absorb whole pages off the right neighbor's front so
    // the remainder of b stays page-aligned in place.
    const uint64_t m = CeilDiv(tp - a.bytes, P) * P;
    LOB_CHECK_LT(m, b.bytes);
    StagedBytes content(a.bytes + m);
    LOB_RETURN_IF_ERROR(ReadLeaf(a, 0, a.bytes, content.data()));
    LOB_RETURN_IF_ERROR(ReadLeaf(b, 0, m, content.data() + a.bytes));
    auto np = WriteNewSegment(content, ctx);
    if (!np.ok()) return np.status();
    LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
        id, a.start, static_cast<int64_t>(m), np->first_page(), ctx));
    np->Commit();
    // b shrank by m from the front; identify it by an offset inside it.
    LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
        id, a.start + a.bytes + m, -static_cast<int64_t>(m),
        b.page + static_cast<PageId>(m / P), ctx));
    LOB_RETURN_IF_ERROR(FreePages(a.page, PagesFor(a.bytes)));
    return FreePages(b.page, static_cast<uint32_t>(m / P));
  }
  // Right is small: absorb the tail of the left neighbor (any byte amount;
  // the left segment trims in place to a partial last page).
  const uint64_t m = tp - b.bytes;
  LOB_CHECK_LT(m, a.bytes);
  StagedBytes content(m + b.bytes);
  LOB_RETURN_IF_ERROR(ReadLeaf(a, a.bytes - m, m, content.data()));
  LOB_RETURN_IF_ERROR(ReadLeaf(b, 0, b.bytes, content.data() + m));
  auto np = WriteNewSegment(content, ctx);
  if (!np.ok()) return np.status();
  LOB_RETURN_IF_ERROR(
      tree_->UpdateLeaf(id, a.start, -static_cast<int64_t>(m), kInvalidPage,
                        ctx));
  const uint32_t keep = PagesFor(a.bytes - m);
  LOB_RETURN_IF_ERROR(FreePages(a.page + keep, PagesFor(a.bytes) - keep));
  LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
      id, a.start + a.bytes - m, static_cast<int64_t>(m), np->first_page(),
      ctx));
  np->Commit();  // the tree references the new segment now
  return FreePages(b.page, PagesFor(b.bytes));
}

Status EosManager::MergeLeaves(ObjectId id,
                               const PositionalTree::LeafInfo& a,
                               const PositionalTree::LeafInfo& b,
                               OpContext* ctx) {
  LOB_TRACE_SPAN(sys_->disk(), "seg.merge");
  StagedBytes content(a.bytes + b.bytes);
  LOB_RETURN_IF_ERROR(ReadLeaf(a, 0, a.bytes, content.data()));
  LOB_RETURN_IF_ERROR(ReadLeaf(b, 0, b.bytes, content.data() + a.bytes));
  auto np = WriteNewSegment(content, ctx);
  if (!np.ok()) return np.status();
  auto removed = tree_->RemoveLeaf(id, b.start, ctx);
  if (!removed.ok()) return removed.status();
  // Repoint a's entry at the merged segment before freeing either old
  // segment: if the repoint fails mid-way the tree still references live
  // pages (the guard reclaims the merged copy) instead of freed ones.
  LOB_RETURN_IF_ERROR(tree_->UpdateLeaf(
      id, a.start, static_cast<int64_t>(b.bytes), np->first_page(), ctx));
  np->Commit();
  LOB_RETURN_IF_ERROR(FreePages(removed->page, PagesFor(b.bytes)));
  return FreePages(a.page, PagesFor(a.bytes));
}

Status EosManager::EnforceThreshold(ObjectId id, uint64_t lo, uint64_t hi,
                                    OpContext* ctx) {
  LOB_TRACE_SPAN(sys_->disk(), "seg.threshold");
  const uint64_t T = options_.threshold_pages;
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  if (*size == 0) return Status::OK();

  // Scan adjacent leaf pairs overlapping [lo, hi], widened by one leaf on
  // the left; merge whenever one side is below T pages and the combined
  // bytes fit in a segment of at most T pages.
  uint64_t cur;
  {
    const uint64_t probe = std::min(lo, *size - 1);
    auto first = tree_->FindLeaf(id, probe);
    if (!first.ok()) return first.status();
    cur = first->start;
    if (cur > 0) {
      auto prev = tree_->FindLeaf(id, cur - 1);
      if (!prev.ok()) return prev.status();
      cur = prev->start;
    }
  }
  const uint64_t bound = std::min(hi, *size == 0 ? 0 : *size - 1);
  while (true) {
    auto a = tree_->FindLeaf(id, std::min(cur, *size - 1));
    if (!a.ok()) return a.status();
    const uint64_t next = a->start + a->bytes;
    if (next >= *size) break;
    auto b = tree_->FindLeaf(id, next);
    if (!b.ok()) return b.status();
    // A segment is below threshold when it holds fewer than T pages' worth
    // of bytes. Violations are repaired by merging the pair into one
    // segment when the combined bytes are modest, or by shuffling whole
    // pages from the bigger neighbor so both sides reach T pages (paper
    // 2.3: "pages in neighboring segments have to be shuffled").
    const uint64_t P = page_size();
    const uint64_t tp = static_cast<uint64_t>(T) * P;
    const uint64_t combined =
        static_cast<uint64_t>(a->bytes) + static_cast<uint64_t>(b->bytes);
    if (a->bytes < tp || b->bytes < tp) {
      if (combined <= 2 * tp + 2 * P) {
        LOB_RETURN_IF_ERROR(MergeLeaves(id, *a, *b, ctx));
        // Re-examine the merged leaf against its new right neighbor.
        cur = a->start;
        continue;
      }
      LOB_RETURN_IF_ERROR(ShuffleLeaves(id, *a, *b, ctx));
      cur = a->start;
      continue;
    }
    if (b->start > bound) break;
    cur = b->start;
  }
  return Status::OK();
}

Status EosManager::Replace(ObjectId id, uint64_t offset,
                           std::string_view data) {
  if (data.empty()) return Status::OK();
  OpScope obs_scope(sys_->disk(), "eos.replace");
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  if (!RangeWithin(offset, data.size(), *size)) {
    return Status::OutOfRange("replace past object end");
  }
  OpContext ctx(sys_->pool(), sys_->arena());
  LOB_RETURN_IF_ERROR(TrimLastSlack(id, &ctx));
  uint64_t done = 0;
  while (done < data.size()) {
    auto leaf = tree_->FindLeaf(id, offset + done);
    if (!leaf.ok()) return leaf.status();
    const uint64_t local = offset + done - leaf->start;
    const uint64_t take =
        std::min<uint64_t>(leaf->bytes - local, data.size() - done);
    if (sys_->config().shadowing) {
      // Whole-segment shadow (paper 3.3).
      auto content =
          StageSplice(sys_->pool(), leaf_area_id(), leaf->page, leaf->bytes,
                      local, take, data.substr(done, take));
      if (!content.ok()) return content.status();
      auto np = WriteNewSegment(*content, &ctx);
      if (!np.ok()) return np.status();
      LOB_RETURN_IF_ERROR(
          tree_->UpdateLeaf(id, leaf->start, 0, np->first_page(), &ctx));
      np->Commit();
      LOB_RETURN_IF_ERROR(FreePages(leaf->page, PagesFor(leaf->bytes)));
    } else {
      LOB_RETURN_IF_ERROR(sys_->pool()->WriteSegmentRange(
          leaf_area_id(), leaf->page, leaf->bytes, local, take,
          data.data() + done));
      const PageId p0 =
          leaf->page + static_cast<PageId>(local / page_size());
      const PageId p1 = leaf->page + static_cast<PageId>(
                                         (local + take - 1) / page_size());
      ctx.DeferFlush(leaf_area_id(), p0, p1 - p0 + 1);
    }
    done += take;
  }
  LOB_RETURN_IF_ERROR(RefreshAux(id));
  return ctx.Finish();
}

StatusOr<ObjectStorageStats> EosManager::GetStorageStats(ObjectId id) {
  auto tree_stats = tree_->Validate(id);
  if (!tree_stats.ok()) return tree_stats.status();
  auto aux = tree_->GetAux(id);
  if (!aux.ok()) return aux.status();
  ObjectStorageStats out;
  out.object_bytes = tree_stats->bytes;
  out.index_pages = tree_stats->index_pages;
  out.segments = tree_stats->leaves;
  out.tree_height = tree_stats->height;
  uint64_t pages = 0;
  uint64_t last_bytes = 0;
  LOB_RETURN_IF_ERROR(tree_->VisitLeaves(id, [&](const auto& leaf) {
    pages += PagesFor(leaf.bytes);
    last_bytes = leaf.bytes;
    return Status::OK();
  }));
  if (tree_stats->leaves > 0 && *aux > PagesFor(last_bytes)) {
    pages += *aux - PagesFor(last_bytes);  // growth slack in the last leaf
  }
  out.leaf_pages = pages;
  return out;
}

Status EosManager::Trim(ObjectId id) {
  OpScope obs_scope(sys_->disk(), "eos.trim");
  OpContext ctx(sys_->pool(), sys_->arena());
  LOB_RETURN_IF_ERROR(TrimLastSlack(id, &ctx));
  return ctx.Finish();
}

Status EosManager::VisitSegments(
    ObjectId id, const std::function<Status(uint64_t, uint32_t)>& fn) {
  auto aux = tree_->GetAux(id);
  if (!aux.ok()) return aux.status();
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  const uint64_t total = *size;
  return tree_->VisitLeaves(id, [&](const auto& leaf) {
    const bool is_last = leaf.start + leaf.bytes == total;
    const uint32_t pages =
        is_last && *aux != 0 ? *aux : PagesFor(leaf.bytes);
    return fn(leaf.bytes, pages);
  });
}

Status EosManager::VisitOwnedExtents(
    ObjectId id, const std::function<Status(const OwnedExtent&)>& fn) {
  LOB_RETURN_IF_ERROR(tree_->VisitIndexPages(id, [&](PageId page) {
    return fn({sys_->meta_area()->id(), page, 1});
  }));
  auto aux = tree_->GetAux(id);
  if (!aux.ok()) return aux.status();
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  const uint64_t total = *size;
  return tree_->VisitLeaves(id, [&](const auto& leaf) {
    // The last segment may carry growth slack; the aux word records its
    // allocated page count (0 = exactly sized).
    const bool is_last = leaf.start + leaf.bytes == total;
    const uint32_t pages =
        is_last && *aux != 0 ? *aux : PagesFor(leaf.bytes);
    return fn({leaf_area_id(), leaf.page, pages});
  });
}

Status EosManager::Validate(ObjectId id) {
  auto tree_stats = tree_->Validate(id);
  if (!tree_stats.ok()) return tree_stats.status();
  Status leaf_check = Status::OK();
  const uint64_t max_bytes =
      static_cast<uint64_t>(options_.max_segment_pages) * page_size();
  LOB_RETURN_IF_ERROR(tree_->VisitLeaves(id, [&](const auto& leaf) {
    if (leaf.bytes == 0 || leaf.bytes > max_bytes) {
      leaf_check = Status::Corruption("leaf byte count out of range");
    }
    if (!sys_->leaf_area()->IsAllocated(leaf.page)) {
      leaf_check = Status::Corruption("leaf segment not allocated");
    }
    return Status::OK();
  }));
  return leaf_check;
}

}  // namespace lob
