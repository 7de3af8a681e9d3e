#include "lobtree/positional_tree.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "buddy/scoped_extent.h"
#include "common/logging.h"
#include "trace/trace_span.h"

namespace lob {

namespace {

// Rewrites the pair array of a formatted node from a flat entry list.
void WriteEntries(NodeView* v, const std::vector<LeafEntry>& entries,
                  size_t first, size_t count) {
  v->set_npairs(0);
  uint32_t cum = 0;
  for (size_t i = 0; i < count; ++i) {
    const LeafEntry& e = entries[first + i];
    v->set_npairs(static_cast<uint16_t>(i + 1));
    cum += e.bytes;
    v->SetCount(static_cast<uint32_t>(i), cum);
    v->SetPage(static_cast<uint32_t>(i), e.page);
  }
}

template <typename View>
std::vector<LeafEntry> GatherEntries(const View& v) {
  std::vector<LeafEntry> out;
  out.reserve(v.npairs());
  for (uint32_t i = 0; i < v.npairs(); ++i) {
    out.push_back({v.SubtreeBytes(i), v.Page(i)});
  }
  return out;
}

uint32_t SumBytes(const std::vector<LeafEntry>& entries, size_t first,
                  size_t count) {
  uint32_t sum = 0;
  for (size_t i = 0; i < count; ++i) sum += entries[first + i].bytes;
  return sum;
}

}  // namespace

PositionalTree::PositionalTree(const TreeConfig& config) : config_(config) {
  LOB_CHECK(config_.pool != nullptr);
  LOB_CHECK(config_.meta_area != nullptr);
  const uint32_t page_size = config_.pool->page_size();
  LOB_CHECK_LE(config_.limits.root_capacity,
               (page_size - node::kRootHeaderBytes) / 8);
  LOB_CHECK_LE(config_.limits.internal_capacity,
               (page_size - node::kInternalHeaderBytes) / 8);
  LOB_CHECK_GE(config_.limits.root_capacity, 4u);
  LOB_CHECK_GE(config_.limits.internal_capacity, 4u);
}

StatusOr<PageId> PositionalTree::CreateObject(uint8_t engine) {
  LOB_TRACE_SPAN(config_.pool->disk(), "tree.create");
  auto ext = ScopedExtent::Allocate(config_.meta_area, config_.pool, 1);
  if (!ext.ok()) return ext.status();
  {
    auto g = config_.pool->FixPage(meta_area_id(), ext->first_page(),
                                   FixMode::kNew);
    if (!g.ok()) return g.status();  // ext rolls the root page back
    NodeView v(g->mutable_data(), config_.pool->page_size(), /*is_root=*/true);
    v.Init(/*height=*/1, engine);
    g->MarkDirty();
  }
  ext->Commit();
  return ext->first_page();
}

Status PositionalTree::FreeIndexPage(PageId page) {
  LOB_RETURN_IF_ERROR(config_.pool->Invalidate(meta_area_id(), page, 1));
  return config_.meta_area->Free(page, 1);
}

Status PositionalTree::DestroyObject(PageId root) {
  LOB_TRACE_SPAN(config_.pool->disk(), "tree.destroy");
  // Free internal nodes depth-first, then the root page itself.
  struct Walker {
    PositionalTree* tree;
    Status Free(PageId page, bool is_root) {
      std::vector<PageId> children;
      uint16_t height = 0;
      {
        auto g = tree->config_.pool->FixPage(tree->meta_area_id(), page,
                                             FixMode::kRead);
        if (!g.ok()) return g.status();
        ConstNodeView v(g->data(), tree->config_.pool->page_size(), is_root);
        if (!v.IsValid()) return Status::Corruption("bad node magic");
        height = v.height();
        if (height > 1) {
          for (uint32_t i = 0; i < v.npairs(); ++i) {
            children.push_back(v.Page(i));
          }
        }
      }
      for (PageId c : children) LOB_RETURN_IF_ERROR(Free(c, false));
      return tree->FreeIndexPage(page);
    }
  };
  Walker w{this};
  return w.Free(root, /*is_root=*/true);
}

StatusOr<uint64_t> PositionalTree::Size(PageId root) {
  auto g = config_.pool->FixPage(meta_area_id(), root, FixMode::kRead);
  if (!g.ok()) return g.status();
  ConstNodeView v(g->data(), config_.pool->page_size(), /*is_root=*/true);
  if (!v.IsValid()) return Status::Corruption("bad root magic");
  return static_cast<uint64_t>(v.TotalBytes());
}

StatusOr<PositionalTree::LeafInfo> PositionalTree::FindLeaf(PageId root,
                                                            uint64_t offset) {
  LOB_TRACE_SPAN(config_.pool->disk(), "tree.descend");
  PageId page = root;
  bool is_root = true;
  uint64_t base = 0;
  uint64_t rel = offset;
  while (true) {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    ConstNodeView v(g->data(), config_.pool->page_size(), is_root);
    if (!v.IsValid()) return Status::Corruption("bad node magic");
    if (v.npairs() == 0 || rel >= v.TotalBytes()) {
      return Status::OutOfRange("offset beyond object size");
    }
    const uint32_t idx = v.FindChild(static_cast<uint32_t>(rel));
    const uint64_t prefix = idx == 0 ? 0 : v.Count(idx - 1);
    if (v.height() == 1) {
      return LeafInfo{base + prefix, v.SubtreeBytes(idx), v.Page(idx)};
    }
    base += prefix;
    rel -= prefix;
    page = v.Page(idx);
    is_root = false;
  }
}

StatusOr<PositionalTree::LeafInfo> PositionalTree::LastLeaf(PageId root) {
  auto size = Size(root);
  if (!size.ok()) return size.status();
  if (*size == 0) return Status::NotFound("empty object");
  return FindLeaf(root, *size - 1);
}

StatusOr<PageId> PositionalTree::PrepareModify(PageId page, OpContext* ctx) {
  LOB_CHECK(ctx != nullptr);
  if (!config_.shadowing) {
    ctx->DeferFlush(meta_area_id(), page, 1);
    return page;
  }
  if (ctx->AlreadyShadowed(meta_area_id(), page)) return page;
  auto ext = ScopedExtent::Allocate(config_.meta_area, config_.pool, 1);
  if (!ext.ok()) return ext.status();
  const PageId np = ext->first_page();
  {
    auto old_g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!old_g.ok()) return old_g.status();  // ext rolls the shadow back
    auto new_g = config_.pool->FixPage(meta_area_id(), np, FixMode::kNew);
    if (!new_g.ok()) return new_g.status();
    std::memcpy(new_g->mutable_data(), old_g->data(),
                config_.pool->page_size());
    new_g->MarkDirty();
  }
  // The shadow copy is complete: commit it, then retire the old page.
  // (Invalidate and Free cannot fail under injected I/O faults: the pins
  // are released and DatabaseArea::Free absorbs directory-write errors.)
  ext->Commit();
  LOB_RETURN_IF_ERROR(config_.pool->Invalidate(meta_area_id(), page, 1));
  LOB_RETURN_IF_ERROR(config_.meta_area->Free(page, 1));
  ctx->NoteShadowed(meta_area_id(), np);
  ctx->DeferFlush(meta_area_id(), np, 1);
  return np;
}

StatusOr<PageId> PositionalTree::NewInternalNode(uint16_t height,
                                                 OpContext* ctx) {
  auto ext = ScopedExtent::Allocate(config_.meta_area, config_.pool, 1);
  if (!ext.ok()) return ext.status();
  {
    auto g = config_.pool->FixPage(meta_area_id(), ext->first_page(),
                                   FixMode::kNew);
    if (!g.ok()) return g.status();  // ext rolls the node back
    NodeView v(g->mutable_data(), config_.pool->page_size(),
               /*is_root=*/false);
    v.Init(height);
    g->MarkDirty();
  }
  ext->Commit();
  ctx->NoteShadowed(meta_area_id(), ext->first_page());
  ctx->DeferFlush(meta_area_id(), ext->first_page(), 1);
  return ext->first_page();
}

StatusOr<PositionalTree::SplitResult> PositionalTree::InsertPairInNode(
    PageId page, bool is_root, uint32_t idx, uint32_t bytes, PageId child,
    OpContext* ctx) {
  std::vector<LeafEntry> entries;
  uint16_t height = 0;
  {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    ConstNodeView v(g->data(), config_.pool->page_size(), is_root);
    height = v.height();
    if (v.npairs() < CapacityOf(is_root)) {
      NodeView mv(g->mutable_data(), config_.pool->page_size(), is_root);
      mv.InsertPair(idx, bytes, child);
      g->MarkDirty();
      return SplitResult{};
    }
    entries = GatherEntries(v);
  }
  entries.insert(entries.begin() + idx, LeafEntry{bytes, child});
  const size_t total = entries.size();
  const size_t left_n = (total + 1) / 2;
  const size_t right_n = total - left_n;

  if (is_root) {
    // Grow the tree: the root keeps its page (it is the object's identity)
    // and repoints at two fresh internal nodes holding the halves.
    auto left_or = NewInternalNode(height, ctx);
    if (!left_or.ok()) return left_or.status();
    auto right_or = NewInternalNode(height, ctx);
    if (!right_or.ok()) return right_or.status();
    for (int side = 0; side < 2; ++side) {
      const PageId p = side == 0 ? *left_or : *right_or;
      auto g = config_.pool->FixPage(meta_area_id(), p, FixMode::kRead);
      if (!g.ok()) return g.status();
      NodeView v(g->mutable_data(), config_.pool->page_size(),
                 /*is_root=*/false);
      WriteEntries(&v, entries, side == 0 ? 0 : left_n,
                   side == 0 ? left_n : right_n);
      g->MarkDirty();
    }
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    NodeView v(g->mutable_data(), config_.pool->page_size(), is_root);
    v.set_height(static_cast<uint16_t>(height + 1));
    std::vector<LeafEntry> top = {
        {SumBytes(entries, 0, left_n), *left_or},
        {SumBytes(entries, left_n, right_n), *right_or}};
    WriteEntries(&v, top, 0, 2);
    g->MarkDirty();
    return SplitResult{};
  }

  // Split a non-root node: keep the left half in place, move the right
  // half to a fresh sibling and report it to the caller.
  auto sib_or = NewInternalNode(height, ctx);
  if (!sib_or.ok()) return sib_or.status();
  {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    NodeView v(g->mutable_data(), config_.pool->page_size(),
               /*is_root=*/false);
    WriteEntries(&v, entries, 0, left_n);
    g->MarkDirty();
  }
  {
    auto g = config_.pool->FixPage(meta_area_id(), *sib_or, FixMode::kRead);
    if (!g.ok()) return g.status();
    NodeView v(g->mutable_data(), config_.pool->page_size(),
               /*is_root=*/false);
    WriteEntries(&v, entries, left_n, right_n);
    g->MarkDirty();
  }
  return SplitResult{true, SumBytes(entries, left_n, right_n), *sib_or};
}

StatusOr<PositionalTree::SplitResult> PositionalTree::InsertRec(
    PageId page, bool is_root, uint64_t rel, const LeafEntry& entry,
    OpContext* ctx) {
  uint16_t height;
  uint32_t idx;
  uint64_t child_rel = 0;
  PageId child = kInvalidPage;
  {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    ConstNodeView v(g->data(), config_.pool->page_size(), is_root);
    if (!v.IsValid()) return Status::Corruption("bad node magic");
    height = v.height();
    const uint32_t total = v.TotalBytes();
    LOB_CHECK_LE(rel, total);
    if (height == 1) {
      if (rel == total) {
        idx = v.npairs();
      } else {
        idx = v.FindChild(static_cast<uint32_t>(rel));
        const uint32_t start = idx == 0 ? 0 : v.Count(idx - 1);
        if (rel != start) {
          return Status::Internal("leaf insert not on a leaf boundary");
        }
      }
    } else {
      idx = rel == total ? v.npairs() - 1
                         : v.FindChild(static_cast<uint32_t>(rel));
      const uint32_t prefix = idx == 0 ? 0 : v.Count(idx - 1);
      child_rel = rel - prefix;
      child = v.Page(idx);
    }
  }
  if (height == 1) {
    return InsertPairInNode(page, is_root, idx, entry.bytes, entry.page, ctx);
  }
  auto prepared = PrepareModify(child, ctx);
  if (!prepared.ok()) return prepared.status();
  if (*prepared != child) {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    NodeView v(g->mutable_data(), config_.pool->page_size(), is_root);
    v.SetPage(idx, *prepared);
    g->MarkDirty();
  }
  auto res = InsertRec(*prepared, /*is_root=*/false, child_rel, entry, ctx);
  if (!res.ok()) return res.status();
  {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    NodeView v(g->mutable_data(), config_.pool->page_size(), is_root);
    v.AddBytes(idx, entry.bytes);
    if (res->split) v.AddBytes(idx, -static_cast<int64_t>(res->right_bytes));
    g->MarkDirty();
  }
  if (!res->split) return SplitResult{};
  return InsertPairInNode(page, is_root, idx + 1, res->right_bytes,
                          res->right_page, ctx);
}

Status PositionalTree::InsertLeaf(PageId root, uint64_t at,
                                  const LeafEntry& entry, OpContext* ctx) {
  LOB_TRACE_SPAN(config_.pool->disk(), "tree.insert");
  if (entry.bytes == 0) return Status::InvalidArgument("empty leaf entry");
  auto size = Size(root);
  if (!size.ok()) return size.status();
  if (at > *size) return Status::OutOfRange("insert past object end");
  auto res = InsertRec(root, /*is_root=*/true, at, entry, ctx);
  if (!res.ok()) return res.status();
  LOB_CHECK(!res->split);
  return Status::OK();
}

StatusOr<LeafEntry> PositionalTree::RemoveRec(PageId page, bool is_root,
                                              uint64_t rel, OpContext* ctx) {
  uint16_t height;
  uint32_t idx;
  uint64_t child_rel = 0;
  PageId child = kInvalidPage;
  {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    ConstNodeView v(g->data(), config_.pool->page_size(), is_root);
    if (!v.IsValid()) return Status::Corruption("bad node magic");
    height = v.height();
    if (v.npairs() == 0 || rel >= v.TotalBytes()) {
      return Status::OutOfRange("remove beyond object size");
    }
    idx = v.FindChild(static_cast<uint32_t>(rel));
    const uint32_t prefix = idx == 0 ? 0 : v.Count(idx - 1);
    if (height == 1) {
      if (rel != prefix) {
        return Status::Internal("leaf remove not at a leaf start");
      }
      LeafEntry removed{v.SubtreeBytes(idx), v.Page(idx)};
      NodeView mv(g->mutable_data(), config_.pool->page_size(), is_root);
      mv.RemovePair(idx);
      g->MarkDirty();
      return removed;
    }
    child_rel = rel - prefix;
    child = v.Page(idx);
  }
  auto prepared = PrepareModify(child, ctx);
  if (!prepared.ok()) return prepared.status();
  if (*prepared != child) {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    NodeView v(g->mutable_data(), config_.pool->page_size(), is_root);
    v.SetPage(idx, *prepared);
    g->MarkDirty();
  }
  auto removed = RemoveRec(*prepared, /*is_root=*/false, child_rel, ctx);
  if (!removed.ok()) return removed.status();
  uint32_t child_pairs;
  {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    NodeView v(g->mutable_data(), config_.pool->page_size(), is_root);
    v.AddBytes(idx, -static_cast<int64_t>(removed->bytes));
    g->MarkDirty();
    auto cg = config_.pool->FixPage(meta_area_id(), *prepared, FixMode::kRead);
    if (!cg.ok()) return cg.status();
    ConstNodeView cv(cg->data(), config_.pool->page_size(),
                     /*is_root=*/false);
    child_pairs = cv.npairs();
  }
  if (child_pairs < config_.limits.MinFill()) {
    LOB_RETURN_IF_ERROR(RebalanceChild(page, is_root, idx, ctx));
  }
  return removed;
}

Status PositionalTree::RebalanceChild(PageId page, bool is_root, uint32_t idx,
                                      OpContext* ctx) {
  uint32_t left_idx, right_idx;
  PageId left_page, right_page;
  {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    ConstNodeView v(g->data(), config_.pool->page_size(), is_root);
    if (v.npairs() <= 1) return Status::OK();  // no sibling to draw from
    const uint32_t sib = idx > 0 ? idx - 1 : idx + 1;
    left_idx = std::min(idx, sib);
    right_idx = std::max(idx, sib);
    left_page = v.Page(left_idx);
    right_page = v.Page(right_idx);
  }
  auto lp = PrepareModify(left_page, ctx);
  if (!lp.ok()) return lp.status();
  auto rp = PrepareModify(right_page, ctx);
  if (!rp.ok()) return rp.status();
  if (*lp != left_page || *rp != right_page) {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    NodeView v(g->mutable_data(), config_.pool->page_size(), is_root);
    v.SetPage(left_idx, *lp);
    v.SetPage(right_idx, *rp);
    g->MarkDirty();
  }
  std::vector<LeafEntry> left_entries, right_entries;
  uint16_t child_height;
  {
    auto lg = config_.pool->FixPage(meta_area_id(), *lp, FixMode::kRead);
    if (!lg.ok()) return lg.status();
    ConstNodeView lv(lg->data(), config_.pool->page_size(),
                     /*is_root=*/false);
    left_entries = GatherEntries(lv);
    child_height = lv.height();
    auto rg = config_.pool->FixPage(meta_area_id(), *rp, FixMode::kRead);
    if (!rg.ok()) return rg.status();
    ConstNodeView rv(rg->data(), config_.pool->page_size(),
                     /*is_root=*/false);
    right_entries = GatherEntries(rv);
  }
  const uint32_t old_left_bytes = SumBytes(left_entries, 0,
                                           left_entries.size());
  const uint32_t old_right_bytes = SumBytes(right_entries, 0,
                                            right_entries.size());
  std::vector<LeafEntry> all = left_entries;
  all.insert(all.end(), right_entries.begin(), right_entries.end());

  if (all.size() <= config_.limits.internal_capacity) {
    // Merge everything into the left node; drop the right one.
    {
      auto lg = config_.pool->FixPage(meta_area_id(), *lp, FixMode::kRead);
      if (!lg.ok()) return lg.status();
      NodeView lv(lg->mutable_data(), config_.pool->page_size(),
                  /*is_root=*/false);
      WriteEntries(&lv, all, 0, all.size());
      lg->MarkDirty();
    }
    LOB_RETURN_IF_ERROR(FreeIndexPage(*rp));
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    NodeView v(g->mutable_data(), config_.pool->page_size(), is_root);
    v.RemovePair(right_idx);
    v.AddBytes(left_idx, old_right_bytes);
    g->MarkDirty();
    (void)child_height;
    return Status::OK();
  }

  // Borrow: redistribute entries evenly across the two nodes.
  const size_t new_left_n = (all.size() + 1) / 2;
  {
    auto lg = config_.pool->FixPage(meta_area_id(), *lp, FixMode::kRead);
    if (!lg.ok()) return lg.status();
    NodeView lv(lg->mutable_data(), config_.pool->page_size(),
                /*is_root=*/false);
    WriteEntries(&lv, all, 0, new_left_n);
    lg->MarkDirty();
  }
  {
    auto rg = config_.pool->FixPage(meta_area_id(), *rp, FixMode::kRead);
    if (!rg.ok()) return rg.status();
    NodeView rv(rg->mutable_data(), config_.pool->page_size(),
                /*is_root=*/false);
    WriteEntries(&rv, all, new_left_n, all.size() - new_left_n);
    rg->MarkDirty();
  }
  const uint32_t new_left_bytes = SumBytes(all, 0, new_left_n);
  auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
  if (!g.ok()) return g.status();
  NodeView v(g->mutable_data(), config_.pool->page_size(), is_root);
  const int64_t delta = static_cast<int64_t>(new_left_bytes) -
                        static_cast<int64_t>(old_left_bytes);
  v.AddBytes(left_idx, delta);
  v.AddBytes(right_idx, -delta);
  g->MarkDirty();
  (void)old_right_bytes;
  return Status::OK();
}

Status PositionalTree::MaybeCollapseRoot(PageId root, OpContext* ctx) {
  while (true) {
    PageId child;
    {
      auto g = config_.pool->FixPage(meta_area_id(), root, FixMode::kRead);
      if (!g.ok()) return g.status();
      ConstNodeView v(g->data(), config_.pool->page_size(),
                      /*is_root=*/true);
      if (v.height() == 1 || v.npairs() != 1) return Status::OK();
      child = v.Page(0);
    }
    std::vector<LeafEntry> entries;
    uint16_t child_height;
    {
      auto cg = config_.pool->FixPage(meta_area_id(), child, FixMode::kRead);
      if (!cg.ok()) return cg.status();
      ConstNodeView cv(cg->data(), config_.pool->page_size(),
                       /*is_root=*/false);
      if (cv.npairs() > config_.limits.root_capacity) return Status::OK();
      entries = GatherEntries(cv);
      child_height = cv.height();
    }
    {
      auto g = config_.pool->FixPage(meta_area_id(), root, FixMode::kRead);
      if (!g.ok()) return g.status();
      NodeView v(g->mutable_data(), config_.pool->page_size(),
                 /*is_root=*/true);
      v.set_height(child_height);
      WriteEntries(&v, entries, 0, entries.size());
      g->MarkDirty();
    }
    LOB_RETURN_IF_ERROR(FreeIndexPage(child));
    (void)ctx;
  }
}

StatusOr<LeafEntry> PositionalTree::RemoveLeaf(PageId root,
                                               uint64_t leaf_start,
                                               OpContext* ctx) {
  LOB_TRACE_SPAN(config_.pool->disk(), "tree.remove");
  auto removed = RemoveRec(root, /*is_root=*/true, leaf_start, ctx);
  if (!removed.ok()) return removed;
  LOB_RETURN_IF_ERROR(MaybeCollapseRoot(root, ctx));
  return removed;
}

Status PositionalTree::UpdateRec(PageId page, bool is_root, uint64_t rel,
                                 int64_t delta, PageId new_page,
                                 OpContext* ctx) {
  uint16_t height;
  uint32_t idx;
  uint64_t child_rel = 0;
  PageId child = kInvalidPage;
  {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    ConstNodeView v(g->data(), config_.pool->page_size(), is_root);
    if (!v.IsValid()) return Status::Corruption("bad node magic");
    height = v.height();
    if (v.npairs() == 0 || rel >= v.TotalBytes()) {
      return Status::OutOfRange("update beyond object size");
    }
    idx = v.FindChild(static_cast<uint32_t>(rel));
    if (height == 1) {
      const int64_t new_bytes =
          static_cast<int64_t>(v.SubtreeBytes(idx)) + delta;
      if (new_bytes <= 0) {
        return Status::Internal("leaf update would empty the leaf");
      }
      NodeView mv(g->mutable_data(), config_.pool->page_size(), is_root);
      mv.AddBytes(idx, delta);
      if (new_page != kInvalidPage) mv.SetPage(idx, new_page);
      g->MarkDirty();
      return Status::OK();
    }
    const uint32_t prefix = idx == 0 ? 0 : v.Count(idx - 1);
    child_rel = rel - prefix;
    child = v.Page(idx);
  }
  auto prepared = PrepareModify(child, ctx);
  if (!prepared.ok()) return prepared.status();
  LOB_RETURN_IF_ERROR(
      UpdateRec(*prepared, /*is_root=*/false, child_rel, delta, new_page, ctx));
  auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
  if (!g.ok()) return g.status();
  NodeView v(g->mutable_data(), config_.pool->page_size(), is_root);
  if (*prepared != child) v.SetPage(idx, *prepared);
  v.AddBytes(idx, delta);
  g->MarkDirty();
  return Status::OK();
}

Status PositionalTree::UpdateLeaf(PageId root, uint64_t offset, int64_t delta,
                                  PageId new_page, OpContext* ctx) {
  LOB_TRACE_SPAN(config_.pool->disk(), "tree.update");
  return UpdateRec(root, /*is_root=*/true, offset, delta, new_page, ctx);
}

Status PositionalTree::VisitRec(
    PageId page, bool is_root, uint64_t base,
    const std::function<Status(const LeafInfo&)>& fn) {
  std::vector<LeafEntry> entries;
  uint16_t height;
  {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    ConstNodeView v(g->data(), config_.pool->page_size(), is_root);
    if (!v.IsValid()) return Status::Corruption("bad node magic");
    height = v.height();
    entries = GatherEntries(v);
  }
  uint64_t at = base;
  for (const LeafEntry& e : entries) {
    if (height == 1) {
      LOB_RETURN_IF_ERROR(fn(LeafInfo{at, e.bytes, e.page}));
    } else {
      LOB_RETURN_IF_ERROR(VisitRec(e.page, /*is_root=*/false, at, fn));
    }
    at += e.bytes;
  }
  return Status::OK();
}

Status PositionalTree::VisitLeaves(
    PageId root, const std::function<Status(const LeafInfo&)>& fn) {
  return VisitRec(root, /*is_root=*/true, 0, fn);
}

Status PositionalTree::VisitIndexPages(
    PageId root, const std::function<Status(PageId)>& fn) {
  struct Walker {
    PositionalTree* tree;
    const std::function<Status(PageId)>& fn;
    Status Visit(PageId page, bool is_root) {
      LOB_RETURN_IF_ERROR(fn(page));
      std::vector<PageId> children;
      {
        auto g = tree->config_.pool->FixPage(tree->meta_area_id(), page,
                                             FixMode::kRead);
        if (!g.ok()) return g.status();
        ConstNodeView v(g->data(), tree->config_.pool->page_size(), is_root);
        if (!v.IsValid()) return Status::Corruption("bad node magic");
        if (v.height() > 1) {
          for (uint32_t i = 0; i < v.npairs(); ++i) {
            children.push_back(v.Page(i));
          }
        }
      }
      for (PageId c : children) LOB_RETURN_IF_ERROR(Visit(c, false));
      return Status::OK();
    }
  };
  Walker w{this, fn};
  return w.Visit(root, /*is_root=*/true);
}

StatusOr<uint32_t> PositionalTree::GetAux(PageId root) {
  auto g = config_.pool->FixPage(meta_area_id(), root, FixMode::kRead);
  if (!g.ok()) return g.status();
  ConstNodeView v(g->data(), config_.pool->page_size(), /*is_root=*/true);
  return v.aux();
}

Status PositionalTree::SetAux(PageId root, uint32_t value) {
  auto g = config_.pool->FixPage(meta_area_id(), root, FixMode::kRead);
  if (!g.ok()) return g.status();
  NodeView v(g->mutable_data(), config_.pool->page_size(), /*is_root=*/true);
  v.set_aux(value);
  g->MarkDirty();
  return Status::OK();
}

StatusOr<uint8_t> PositionalTree::GetEngine(PageId root) {
  auto g = config_.pool->FixPage(meta_area_id(), root, FixMode::kRead);
  if (!g.ok()) return g.status();
  ConstNodeView v(g->data(), config_.pool->page_size(), /*is_root=*/true);
  if (!v.IsValid()) return Status::Corruption("bad root magic");
  return v.engine();
}

Status PositionalTree::ValidateRec(PageId page, bool is_root,
                                   uint16_t expect_height,
                                   TreeStatsInfo* stats) {
  std::vector<LeafEntry> entries;
  uint16_t height;
  {
    auto g = config_.pool->FixPage(meta_area_id(), page, FixMode::kRead);
    if (!g.ok()) return g.status();
    ConstNodeView v(g->data(), config_.pool->page_size(), is_root);
    if (!v.IsValid()) return Status::Corruption("bad node magic");
    height = v.height();
    if (height != expect_height) {
      return Status::Corruption("inconsistent node height");
    }
    if (!is_root && v.npairs() < config_.limits.MinFill()) {
      return Status::Corruption("internal node below minimum fill");
    }
    if (!is_root && v.npairs() > config_.limits.internal_capacity) {
      return Status::Corruption("internal node above capacity");
    }
    if (is_root && v.npairs() > config_.limits.root_capacity) {
      return Status::Corruption("root above capacity");
    }
    uint32_t prev = 0;
    for (uint32_t i = 0; i < v.npairs(); ++i) {
      if (v.Count(i) <= prev) {
        return Status::Corruption("cumulative counts not increasing");
      }
      prev = v.Count(i);
    }
    entries = GatherEntries(v);
  }
  stats->index_pages += 1;
  if (height == 1) {
    stats->leaves += static_cast<uint32_t>(entries.size());
    for (const LeafEntry& e : entries) stats->bytes += e.bytes;
    return Status::OK();
  }
  for (const LeafEntry& e : entries) {
    TreeStatsInfo child_stats;
    child_stats.index_pages = 0;
    LOB_RETURN_IF_ERROR(ValidateRec(e.page, /*is_root=*/false,
                                    static_cast<uint16_t>(height - 1),
                                    &child_stats));
    if (child_stats.bytes != e.bytes) {
      return Status::Corruption("pair count does not match subtree bytes");
    }
    stats->index_pages += child_stats.index_pages;
    stats->leaves += child_stats.leaves;
    stats->bytes += child_stats.bytes;
  }
  return Status::OK();
}

StatusOr<PositionalTree::TreeStatsInfo> PositionalTree::Validate(PageId root) {
  TreeStatsInfo stats;
  stats.index_pages = 0;
  {
    auto g = config_.pool->FixPage(meta_area_id(), root, FixMode::kRead);
    if (!g.ok()) return g.status();
    ConstNodeView v(g->data(), config_.pool->page_size(), /*is_root=*/true);
    if (!v.IsValid()) return Status::Corruption("bad root magic");
    stats.height = v.height();
  }
  LOB_RETURN_IF_ERROR(ValidateRec(root, /*is_root=*/true, stats.height,
                                  &stats));
  return stats;
}

}  // namespace lob
