#include "esm/esm_manager.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "buffer/staged_bytes.h"
#include "common/logging.h"
#include "trace/trace_span.h"
#include "common/math_util.h"

namespace lob {

namespace {

// Append-style distribution (paper 4.2): all but the last two leaves full;
// the remainder split evenly between the last two, each at least half full.
std::vector<uint64_t> DistributeAppend(uint64_t total, uint64_t cap) {
  std::vector<uint64_t> sizes;
  if (total == 0) return sizes;
  if (total <= cap) {
    sizes.push_back(total);
    return sizes;
  }
  uint64_t rem = total;
  while (rem > 2 * cap) {
    sizes.push_back(cap);
    rem -= cap;
  }
  sizes.push_back((rem + 1) / 2);
  sizes.push_back(rem / 2);
  return sizes;
}

// Basic-insert distribution (Carey et al.): bytes spread evenly over
// ceil(total/cap) leaves.
std::vector<uint64_t> DistributeEven(uint64_t total, uint64_t cap) {
  std::vector<uint64_t> sizes;
  if (total == 0) return sizes;
  const uint64_t k = CeilDiv(total, cap);
  uint64_t rem = total;
  for (uint64_t i = 0; i < k; ++i) {
    const uint64_t take = CeilDiv(rem, k - i);
    sizes.push_back(take);
    rem -= take;
  }
  return sizes;
}

}  // namespace

EsmManager::EsmManager(StorageSystem* sys, const EsmOptions& options)
    : sys_(sys), options_(options), page_size_(sys->config().page_size) {
  LOB_CHECK_GE(options_.leaf_pages, 1u);
  LOB_CHECK_LE(options_.leaf_pages, sys->leaf_area()->max_segment_pages());
  TreeConfig tc;
  tc.pool = sys_->pool();
  tc.meta_area = sys_->meta_area();
  tc.limits = options_.limits;
  tc.shadowing = sys_->config().shadowing;
  tree_ = std::make_unique<PositionalTree>(tc);
}

StatusOr<ObjectId> EsmManager::Create() {
  OpScope obs_scope(sys_->disk(), "esm.create");
  return tree_->CreateObject(static_cast<uint8_t>(Engine::kEsm));
}

Status EsmManager::Destroy(ObjectId id) {
  OpScope obs_scope(sys_->disk(), "esm.destroy");
  std::vector<PageId> leaves;
  LOB_RETURN_IF_ERROR(tree_->VisitLeaves(id, [&](const auto& leaf) {
    leaves.push_back(leaf.page);
    return Status::OK();
  }));
  // Destroy the index first: if the tree walk fails part-way through, the
  // object is still well-formed (leaves intact) and the destroy can be
  // retried. The leaf frees afterwards cannot fail under I/O faults.
  LOB_RETURN_IF_ERROR(tree_->DestroyObject(id));
  for (PageId p : leaves) LOB_RETURN_IF_ERROR(FreeLeaf(p));
  return Status::OK();
}

StatusOr<uint64_t> EsmManager::Size(ObjectId id) {
  OpScope obs_scope(sys_->disk(), "esm.size");
  return tree_->Size(id);
}

Status EsmManager::ReadLeaf(PageId page, uint64_t bytes, uint64_t off,
                            uint64_t n, char* dst) {
  return sys_->pool()->ReadSegmentRange(leaf_area_id(), page, bytes, off, n,
                                        dst);
}

StatusOr<ScopedExtent> EsmManager::WriteNewLeaf(std::string_view content,
                                                OpContext* ctx) {
  LOB_CHECK_LE(content.size(), LeafCapacity());
  auto ext = ScopedExtent::Allocate(sys_->leaf_area(), sys_->pool(),
                                    options_.leaf_pages);
  if (!ext.ok()) return ext.status();
  (void)ctx;
  // A failed write rolls the allocation back via the guard.
  LOB_RETURN_IF_ERROR(sys_->pool()->WriteFreshSegment(
      leaf_area_id(), ext->first_page(), content.data(), content.size()));
  return ext;
}

Status EsmManager::FreeLeaf(PageId page) {
  LOB_RETURN_IF_ERROR(
      sys_->pool()->Invalidate(leaf_area_id(), page, options_.leaf_pages));
  return sys_->leaf_area()->Free(page, options_.leaf_pages);
}

Status EsmManager::Read(ObjectId id, uint64_t offset, uint64_t n,
                        std::string* out) {
  OpScope obs_scope(sys_->disk(), "esm.read");
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
      LOB_RETURN_IF_ERROR(
          ReadLeaf(leaf->page, leaf->bytes, local, take, dst + done));
      done += take;
    }
    return Status::OK();
  });
}

Status EsmManager::AppendInPlace(ObjectId id,
                                 const PositionalTree::LeafInfo& last,
                                 std::string_view data, OpContext* ctx) {
  LOB_RETURN_IF_ERROR(sys_->pool()->WriteSegmentRange(
      leaf_area_id(), last.page, last.bytes, last.bytes, data.size(),
      data.data()));
  const PageId first_touched =
      last.page + static_cast<PageId>(last.bytes / page_size_);
  const PageId last_touched =
      last.page +
      static_cast<PageId>((last.bytes + data.size() - 1) / page_size_);
  ctx->DeferFlush(leaf_area_id(), first_touched,
                  last_touched - first_touched + 1);
  return tree_->UpdateLeaf(id, last.start,
                           static_cast<int64_t>(data.size()), kInvalidPage,
                           ctx);
}

Status EsmManager::AppendWithRedistribution(
    ObjectId id, std::vector<PositionalTree::LeafInfo> parts,
    std::string_view data, OpContext* ctx) {
  LOB_TRACE_SPAN(sys_->disk(), "esm.redistribute");
  const uint64_t cap = LeafCapacity();
  uint64_t total = data.size();
  for (const auto& p : parts) total += p.bytes;
  std::vector<uint64_t> sizes = DistributeAppend(total, cap);

  // Leading leaves whose assigned size equals their current size keep
  // identical content; leave them untouched (this is what makes appends
  // whose size exactly matches the leaf size cheap).
  size_t skip = 0;
  while (skip < parts.size() && skip < sizes.size() &&
         sizes[skip] == parts[skip].bytes) {
    total -= parts[skip].bytes;
    ++skip;
  }
  parts.erase(parts.begin(), parts.begin() + static_cast<long>(skip));
  sizes.erase(sizes.begin(), sizes.begin() + static_cast<long>(skip));

  // The bytes being redistributed: the surviving participants, then data.
  std::string_view content = data;
  std::optional<StagedBytes> staged;
  uint64_t insert_at;
  if (parts.empty()) {
    // Pure extension: new leaves go after the current end, written
    // straight from the caller's buffer.
    auto size = tree_->Size(id);
    if (!size.ok()) return size.status();
    insert_at = *size;
  } else {
    staged.emplace(total);
    uint64_t at = 0;
    for (const auto& p : parts) {
      LOB_RETURN_IF_ERROR(
          ReadLeaf(p.page, p.bytes, 0, p.bytes, staged->data() + at));
      at += p.bytes;
    }
    std::memcpy(staged->data() + at, data.data(), data.size());
    content = *staged;
    insert_at = parts.front().start;
  }

  // Drop the participants from the tree and free their segments
  // (shadowing: rewritten leaves move to fresh segments).
  for (const auto& p : parts) {
    auto removed = tree_->RemoveLeaf(id, insert_at, ctx);
    if (!removed.ok()) return removed.status();
    LOB_CHECK_EQ(removed->page, p.page);
    LOB_RETURN_IF_ERROR(FreeLeaf(p.page));
  }

  // Write the redistributed leaves. Each fresh segment stays under guard
  // until the tree references it, so a failure part-way through the loop
  // releases the in-flight segment instead of leaking it.
  uint64_t src = 0;
  for (uint64_t sz : sizes) {
    auto ext = WriteNewLeaf(content.substr(src, sz), ctx);
    if (!ext.ok()) return ext.status();
    LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
        id, insert_at, {static_cast<uint32_t>(sz), ext->first_page()}, ctx));
    ext->Commit();
    insert_at += sz;
    src += sz;
  }
  LOB_CHECK_EQ(src, content.size());
  return Status::OK();
}

Status EsmManager::Append(ObjectId id, std::string_view data) {
  if (data.empty()) return Status::OK();
  OpScope obs_scope(sys_->disk(), "esm.append");
  OpContext ctx(sys_->pool(), sys_->arena());
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  Status s;
  if (*size == 0) {
    s = AppendWithRedistribution(id, {}, data, &ctx);
  } else {
    auto last = tree_->LastLeaf(id);
    if (!last.ok()) return last.status();
    if (last->bytes + data.size() <= LeafCapacity()) {
      s = AppendInPlace(id, *last, data, &ctx);
    } else {
      std::vector<PositionalTree::LeafInfo> parts;
      if (last->start > 0) {
        auto left = tree_->FindLeaf(id, last->start - 1);
        if (!left.ok()) return left.status();
        if (left->bytes < LeafCapacity()) parts.push_back(*left);
      }
      parts.push_back(*last);
      s = AppendWithRedistribution(id, std::move(parts), data, &ctx);
    }
  }
  LOB_RETURN_IF_ERROR(s);
  return ctx.Finish();
}

Status EsmManager::RewriteLeaf(ObjectId id,
                               const PositionalTree::LeafInfo& leaf,
                               std::string_view content, OpContext* ctx) {
  LOB_CHECK(!content.empty());
  const int64_t delta = static_cast<int64_t>(content.size()) -
                        static_cast<int64_t>(leaf.bytes);
  if (sys_->config().shadowing) {
    // Write the shadow leaf, repoint the tree at it, and only then free
    // the old segment. A failure before the repoint rolls the shadow back
    // via its guard; freeing first would leave the tree referencing a
    // freed segment if the repoint failed.
    auto ext = WriteNewLeaf(content, ctx);
    if (!ext.ok()) return ext.status();
    LOB_RETURN_IF_ERROR(
        tree_->UpdateLeaf(id, leaf.start, delta, ext->first_page(), ctx));
    ext->Commit();
    return FreeLeaf(leaf.page);
  }
  LOB_RETURN_IF_ERROR(sys_->pool()->WriteSegmentRange(
      leaf_area_id(), leaf.page, leaf.bytes, 0, content.size(),
      content.data()));
  ctx->DeferFlush(leaf_area_id(), leaf.page,
                  static_cast<uint32_t>(CeilDiv(content.size(), page_size_)));
  return tree_->UpdateLeaf(id, leaf.start, delta, kInvalidPage, ctx);
}

Status EsmManager::Insert(ObjectId id, uint64_t offset,
                          std::string_view data) {
  if (data.empty()) return Status::OK();
  OpScope obs_scope(sys_->disk(), "esm.insert");
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  if (offset > *size) return Status::OutOfRange("insert past object end");
  if (offset == *size) return Append(id, data);

  OpContext ctx(sys_->pool(), sys_->arena());
  const uint64_t cap = LeafCapacity();
  auto leaf = tree_->FindLeaf(id, offset);
  if (!leaf.ok()) return leaf.status();
  const uint64_t local = offset - leaf->start;

  if (leaf->bytes + data.size() <= cap) {
    // Fits in the leaf: shadowed rewrite with the bytes spliced in.
    auto content = StageSplice(sys_->pool(), leaf_area_id(), leaf->page,
                               leaf->bytes, local, 0, data);
    if (!content.ok()) return content.status();
    LOB_RETURN_IF_ERROR(RewriteLeaf(id, *leaf, *content, &ctx));
    return ctx.Finish();
  }

  // Overflow. Improved algorithm: redistribute with one neighbor when that
  // avoids creating a new leaf.
  if (options_.improved_insert) {
    const uint64_t combined = leaf->bytes + data.size();
    StatusOr<PositionalTree::LeafInfo> left = Status::NotFound("");
    StatusOr<PositionalTree::LeafInfo> right = Status::NotFound("");
    if (leaf->start > 0) left = tree_->FindLeaf(id, leaf->start - 1);
    if (leaf->start + leaf->bytes < *size) {
      right = tree_->FindLeaf(id, leaf->start + leaf->bytes);
    }
    const PositionalTree::LeafInfo* nb = nullptr;
    if (left.ok() && combined + left->bytes <= 2 * cap) {
      nb = &left.value();
    } else if (right.ok() && combined + right->bytes <= 2 * cap) {
      nb = &right.value();
    }
    if (nb != nullptr) {
      const bool nb_is_left = nb->start < leaf->start;
      // [left neighbor] leaf with the data spliced in [right neighbor]
      StagedBytes content(combined + nb->bytes);
      char* const at = content.data() + (nb_is_left ? nb->bytes : 0);
      if (nb_is_left) {
        LOB_RETURN_IF_ERROR(
            ReadLeaf(nb->page, nb->bytes, 0, nb->bytes, content.data()));
      }
      LOB_RETURN_IF_ERROR(
          ReadLeaf(leaf->page, leaf->bytes, 0, leaf->bytes, at));
      SpliceInPlace(at, leaf->bytes, local, 0, data);
      if (!nb_is_left) {
        LOB_RETURN_IF_ERROR(
            ReadLeaf(nb->page, nb->bytes, 0, nb->bytes, at + combined));
      }

      const uint64_t base = std::min(nb->start, leaf->start);
      const uint64_t left_sz = (content.size() + 1) / 2;
      const uint64_t right_sz = content.size() - left_sz;
      LOB_CHECK_LE(left_sz, cap);
      // Replace the two leaves with two rewritten ones.
      for (int i = 0; i < 2; ++i) {
        auto removed = tree_->RemoveLeaf(id, base, &ctx);
        if (!removed.ok()) return removed.status();
        LOB_RETURN_IF_ERROR(FreeLeaf(removed->page));
      }
      auto lp = WriteNewLeaf(std::string_view(content).substr(0, left_sz),
                             &ctx);
      if (!lp.ok()) return lp.status();
      LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
          id, base, {static_cast<uint32_t>(left_sz), lp->first_page()},
          &ctx));
      lp->Commit();
      auto rp = WriteNewLeaf(std::string_view(content).substr(left_sz), &ctx);
      if (!rp.ok()) return rp.status();
      LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
          id, base + left_sz,
          {static_cast<uint32_t>(right_sz), rp->first_page()}, &ctx));
      rp->Commit();
      return ctx.Finish();
    }
  }

  // Basic algorithm: spread the leaf's bytes plus the new bytes evenly
  // over ceil(total/cap) fresh leaves.
  auto content = StageSplice(sys_->pool(), leaf_area_id(), leaf->page,
                             leaf->bytes, local, 0, data);
  if (!content.ok()) return content.status();
  auto removed = tree_->RemoveLeaf(id, leaf->start, &ctx);
  if (!removed.ok()) return removed.status();
  LOB_RETURN_IF_ERROR(FreeLeaf(removed->page));
  uint64_t at = leaf->start;
  uint64_t src = 0;
  for (uint64_t sz : DistributeEven(content->size(), cap)) {
    auto ext = WriteNewLeaf(std::string_view(*content).substr(src, sz), &ctx);
    if (!ext.ok()) return ext.status();
    LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
        id, at, {static_cast<uint32_t>(sz), ext->first_page()}, &ctx));
    ext->Commit();
    at += sz;
    src += sz;
  }
  return ctx.Finish();
}

Status EsmManager::Delete(ObjectId id, uint64_t offset, uint64_t n) {
  if (n == 0) return Status::OK();
  OpScope obs_scope(sys_->disk(), "esm.delete");
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  if (!RangeWithin(offset, n, *size)) {
    return Status::OutOfRange("delete past object end");
  }

  OpContext ctx(sys_->pool(), sys_->arena());
  uint64_t remaining = n;
  while (remaining > 0) {
    auto leaf = tree_->FindLeaf(id, offset);
    if (!leaf.ok()) return leaf.status();
    const uint64_t local = offset - leaf->start;
    const uint64_t take = std::min<uint64_t>(leaf->bytes - local, remaining);
    if (local == 0 && take == leaf->bytes) {
      auto removed = tree_->RemoveLeaf(id, leaf->start, &ctx);
      if (!removed.ok()) return removed.status();
      LOB_RETURN_IF_ERROR(FreeLeaf(removed->page));
    } else {
      auto content = StageSplice(sys_->pool(), leaf_area_id(), leaf->page,
                                 leaf->bytes, local, take, {});
      if (!content.ok()) return content.status();
      LOB_RETURN_IF_ERROR(RewriteLeaf(id, *leaf, *content, &ctx));
    }
    remaining -= take;
  }
  LOB_RETURN_IF_ERROR(FixupUnderflow(id, offset, &ctx));
  return ctx.Finish();
}

Status EsmManager::FixupUnderflow(ObjectId id, uint64_t offset,
                                  OpContext* ctx) {
  LOB_TRACE_SPAN(sys_->disk(), "esm.fixup");
  const uint64_t cap = LeafCapacity();
  const uint64_t half = cap / 2;
  for (int round = 0; round < 4; ++round) {
    auto size = tree_->Size(id);
    if (!size.ok()) return size.status();
    if (*size == 0) return Status::OK();
    const uint64_t probe = std::min(offset, *size - 1);
    auto leaf = tree_->FindLeaf(id, probe);
    if (!leaf.ok()) return leaf.status();
    // Candidates: the leaf at the deletion boundary and its left neighbor.
    PositionalTree::LeafInfo cand = *leaf;
    if (cand.bytes >= half && cand.start > 0) {
      auto left = tree_->FindLeaf(id, cand.start - 1);
      if (!left.ok()) return left.status();
      cand = *left;
    }
    if (cand.bytes >= half) return Status::OK();

    // Pick a sibling: prefer left, else right; none -> single leaf, done.
    StatusOr<PositionalTree::LeafInfo> sib = Status::NotFound("");
    if (cand.start > 0) {
      sib = tree_->FindLeaf(id, cand.start - 1);
    } else if (cand.start + cand.bytes < *size) {
      sib = tree_->FindLeaf(id, cand.start + cand.bytes);
    }
    if (!sib.ok()) return Status::OK();

    const PositionalTree::LeafInfo& a =
        sib->start < cand.start ? *sib : cand;
    const PositionalTree::LeafInfo& b =
        sib->start < cand.start ? cand : *sib;
    StagedBytes content(a.bytes + b.bytes);
    LOB_RETURN_IF_ERROR(ReadLeaf(a.page, a.bytes, 0, a.bytes, content.data()));
    LOB_RETURN_IF_ERROR(
        ReadLeaf(b.page, b.bytes, 0, b.bytes, content.data() + a.bytes));

    for (int i = 0; i < 2; ++i) {
      auto removed = tree_->RemoveLeaf(id, a.start, ctx);
      if (!removed.ok()) return removed.status();
      LOB_RETURN_IF_ERROR(FreeLeaf(removed->page));
    }
    if (content.size() <= cap) {
      // Merge into one leaf.
      auto ext = WriteNewLeaf(content, ctx);
      if (!ext.ok()) return ext.status();
      LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
          id, a.start,
          {static_cast<uint32_t>(content.size()), ext->first_page()}, ctx));
      ext->Commit();
      continue;  // the merged leaf may itself be underfull
    }
    // Borrow: split evenly (both at least half full since total > cap).
    const uint64_t left_sz = (content.size() + 1) / 2;
    auto lp = WriteNewLeaf(std::string_view(content).substr(0, left_sz), ctx);
    if (!lp.ok()) return lp.status();
    LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
        id, a.start, {static_cast<uint32_t>(left_sz), lp->first_page()},
        ctx));
    lp->Commit();
    auto rp = WriteNewLeaf(std::string_view(content).substr(left_sz), ctx);
    if (!rp.ok()) return rp.status();
    LOB_RETURN_IF_ERROR(tree_->InsertLeaf(
        id, a.start + left_sz,
        {static_cast<uint32_t>(content.size() - left_sz), rp->first_page()},
        ctx));
    rp->Commit();
    // Both halves are at least half full; one more round re-checks the
    // other deletion boundary.
  }
  return Status::OK();
}

Status EsmManager::Replace(ObjectId id, uint64_t offset,
                           std::string_view data) {
  if (data.empty()) return Status::OK();
  OpScope obs_scope(sys_->disk(), "esm.replace");
  auto size = tree_->Size(id);
  if (!size.ok()) return size.status();
  if (!RangeWithin(offset, data.size(), *size)) {
    return Status::OutOfRange("replace past object end");
  }
  OpContext ctx(sys_->pool(), sys_->arena());
  uint64_t done = 0;
  while (done < data.size()) {
    auto leaf = tree_->FindLeaf(id, offset + done);
    if (!leaf.ok()) return leaf.status();
    const uint64_t local = offset + done - leaf->start;
    const uint64_t take =
        std::min<uint64_t>(leaf->bytes - local, data.size() - done);
    if (sys_->config().shadowing) {
      auto content =
          StageSplice(sys_->pool(), leaf_area_id(), leaf->page, leaf->bytes,
                      local, take, data.substr(done, take));
      if (!content.ok()) return content.status();
      LOB_RETURN_IF_ERROR(RewriteLeaf(id, *leaf, *content, &ctx));
    } else {
      LOB_RETURN_IF_ERROR(sys_->pool()->WriteSegmentRange(
          leaf_area_id(), leaf->page, leaf->bytes, local, take,
          data.data() + done));
      const PageId p0 = leaf->page + static_cast<PageId>(local / page_size_);
      const PageId p1 =
          leaf->page + static_cast<PageId>((local + take - 1) / page_size_);
      ctx.DeferFlush(leaf_area_id(), p0, p1 - p0 + 1);
    }
    done += take;
  }
  return ctx.Finish();
}

StatusOr<ObjectStorageStats> EsmManager::GetStorageStats(ObjectId id) {
  auto tree_stats = tree_->Validate(id);
  if (!tree_stats.ok()) return tree_stats.status();
  ObjectStorageStats out;
  out.object_bytes = tree_stats->bytes;
  out.index_pages = tree_stats->index_pages;
  out.leaf_pages =
      static_cast<uint64_t>(tree_stats->leaves) * options_.leaf_pages;
  out.segments = tree_stats->leaves;
  out.tree_height = tree_stats->height;
  return out;
}

Status EsmManager::VisitSegments(
    ObjectId id, const std::function<Status(uint64_t, uint32_t)>& fn) {
  return tree_->VisitLeaves(id, [&](const auto& leaf) {
    return fn(leaf.bytes, options_.leaf_pages);
  });
}

Status EsmManager::VisitOwnedExtents(
    ObjectId id, const std::function<Status(const OwnedExtent&)>& fn) {
  LOB_RETURN_IF_ERROR(tree_->VisitIndexPages(id, [&](PageId page) {
    return fn({sys_->meta_area()->id(), page, 1});
  }));
  return tree_->VisitLeaves(id, [&](const auto& leaf) {
    return fn({leaf_area_id(), leaf.page, options_.leaf_pages});
  });
}

Status EsmManager::Validate(ObjectId id) {
  auto tree_stats = tree_->Validate(id);
  if (!tree_stats.ok()) return tree_stats.status();
  const uint64_t cap = LeafCapacity();
  Status leaf_check = Status::OK();
  LOB_RETURN_IF_ERROR(tree_->VisitLeaves(id, [&](const auto& leaf) {
    if (leaf.bytes == 0 || leaf.bytes > cap) {
      leaf_check = Status::Corruption("leaf byte count out of range");
    }
    return Status::OK();
  }));
  return leaf_check;
}

}  // namespace lob
