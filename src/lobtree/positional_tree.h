// PositionalTree: the count/pointer index shared by ESM and EOS (paper 2.1,
// 2.3).
//
// A B-tree-like structure over byte positions: internal nodes hold
// cumulative (count, page) pairs; the children of height-1 nodes are leaf
// segments owned by the storage manager using the tree. The tree neither
// allocates nor reads leaf segments - it only maintains the index - which is
// exactly the code sharing the paper describes ("the code that manipulates
// the tree nodes, other than the leaves, is shared between the two
// implementations"; 3.4).
//
// All index mutations honour the recovery discipline of paper 3.3: a
// non-root node is shadowed (relocated to a freshly allocated page) at most
// once per operation, the shadow copies are scheduled for write-back at the
// end of the operation via the OpContext, and the root is updated in place
// and only reaches disk when evicted or explicitly flushed.
//
// Non-root nodes are kept at least half full (borrow/merge on underflow),
// as required for ESM's structure; EOS reuses the identical node code.
//
// The tree holds no lock: like the rest of a StorageSystem it is confined
// to one thread, which the buffer pool it fixes node pages through checks
// (see buffer/buffer_pool.h).

#ifndef LOB_LOBTREE_POSITIONAL_TREE_H_
#define LOB_LOBTREE_POSITIONAL_TREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "buddy/database_area.h"
#include "buffer/buffer_pool.h"
#include "buffer/op_context.h"
#include "common/status.h"
#include "lobtree/node_layout.h"

namespace lob {

/// Wiring for a PositionalTree.
struct TreeConfig {
  BufferPool* pool = nullptr;
  DatabaseArea* meta_area = nullptr;  ///< supplies root and index pages
  TreeLimits limits;
  bool shadowing = true;
};

/// Positional (count, pointer) tree. Objects are identified by the page
/// number of their root, which lives alone in its own page.
class PositionalTree {
 public:
  explicit PositionalTree(const TreeConfig& config);

  /// A leaf as seen from the index: the object-relative offset of its first
  /// byte, the bytes stored in it, and the page where the segment starts.
  struct LeafInfo {
    uint64_t start = 0;
    uint32_t bytes = 0;
    PageId page = kInvalidPage;
  };

  /// Collected by GetStats / Validate.
  struct TreeStatsInfo {
    uint16_t height = 1;
    uint32_t index_pages = 1;  ///< root + internal nodes
    uint32_t leaves = 0;
    uint64_t bytes = 0;
  };

  /// Allocates and formats a root page; `engine` tags the owning manager.
  [[nodiscard]] StatusOr<PageId> CreateObject(uint8_t engine);

  /// Frees all index pages (the caller must have freed / visited the leaf
  /// segments first, e.g. with VisitLeaves).
  [[nodiscard]] Status DestroyObject(PageId root);

  /// Total bytes indexed by the tree.
  [[nodiscard]] StatusOr<uint64_t> Size(PageId root);

  /// Leaf containing byte `offset` (0 <= offset < Size).
  [[nodiscard]] StatusOr<LeafInfo> FindLeaf(PageId root, uint64_t offset);

  /// Rightmost leaf; NotFound on an empty object.
  [[nodiscard]] StatusOr<LeafInfo> LastLeaf(PageId root);

  /// Inserts a new leaf whose first byte will sit at object offset `at`
  /// (which must be an existing leaf boundary or the object size).
  [[nodiscard]]
  Status InsertLeaf(PageId root, uint64_t at, const LeafEntry& entry,
                    OpContext* ctx);

  /// Removes the leaf starting at `leaf_start` and returns its entry.
  [[nodiscard]] StatusOr<LeafEntry> RemoveLeaf(PageId root, uint64_t leaf_start,
                                 OpContext* ctx);

  /// Updates the leaf containing `offset`: adds `delta` to its byte count
  /// and, when `new_page` != kInvalidPage, repoints it (leaf shadowed or
  /// rebuilt elsewhere).
  [[nodiscard]] Status UpdateLeaf(PageId root, uint64_t offset, int64_t delta,
                    PageId new_page, OpContext* ctx);

  /// Calls `fn` for every leaf, left to right.
  [[nodiscard]] Status VisitLeaves(PageId root,
                     const std::function<Status(const LeafInfo&)>& fn);

  /// Calls `fn` for every index page the tree owns (the root and every
  /// internal node), parents before children. Used by the consistency
  /// checker (src/check) to claim the tree's meta-area extents.
  [[nodiscard]] Status VisitIndexPages(PageId root,
                         const std::function<Status(PageId)>& fn);

  /// Root auxiliary word (EOS: allocated pages of the last segment).
  [[nodiscard]] StatusOr<uint32_t> GetAux(PageId root);
  [[nodiscard]] Status SetAux(PageId root, uint32_t value);

  [[nodiscard]] StatusOr<uint8_t> GetEngine(PageId root);

  /// Walks the whole tree checking structural invariants (magic numbers,
  /// cumulative counts, heights, minimum fill). Also returns stats.
  [[nodiscard]] StatusOr<TreeStatsInfo> Validate(PageId root);

  const TreeLimits& limits() const { return config_.limits; }
  AreaId meta_area_id() const { return config_.meta_area->id(); }

 private:
  struct SplitResult {
    bool split = false;
    uint32_t right_bytes = 0;
    PageId right_page = kInvalidPage;
  };

  uint32_t CapacityOf(bool is_root) const {
    return is_root ? config_.limits.root_capacity
                   : config_.limits.internal_capacity;
  }

  /// Shadows `page` (non-root, once per op) and schedules it for end-of-op
  /// flush; returns the page to modify (== `page` unless relocated).
  [[nodiscard]] StatusOr<PageId> PrepareModify(PageId page, OpContext* ctx);

  /// Frees an index page, dropping any cached copy first.
  [[nodiscard]] Status FreeIndexPage(PageId page);

  /// Allocates and formats a fresh internal node.
  [[nodiscard]]
  StatusOr<PageId> NewInternalNode(uint16_t height, OpContext* ctx);

  /// Inserts (bytes, child) before position idx of the node at `page`,
  /// splitting the node (or growing the root) when full.
  [[nodiscard]]
  StatusOr<SplitResult> InsertPairInNode(PageId page, bool is_root,
                                         uint32_t idx, uint32_t bytes,
                                         PageId child, OpContext* ctx);

  [[nodiscard]]
  StatusOr<SplitResult> InsertRec(PageId page, bool is_root, uint64_t rel,
                                  const LeafEntry& entry, OpContext* ctx);

  [[nodiscard]]
  StatusOr<LeafEntry> RemoveRec(PageId page, bool is_root, uint64_t rel,
                                OpContext* ctx);

  /// Rebalances child `idx` of the node at `page` after it fell below the
  /// minimum fill: borrow from or merge with an adjacent sibling.
  [[nodiscard]] Status RebalanceChild(PageId page, bool is_root, uint32_t idx,
                        OpContext* ctx);

  [[nodiscard]]
  Status UpdateRec(PageId page, bool is_root, uint64_t rel, int64_t delta,
                   PageId new_page, OpContext* ctx);

  /// Collapses a 1-pair tall root into its child where possible.
  [[nodiscard]] Status MaybeCollapseRoot(PageId root, OpContext* ctx);

  [[nodiscard]]
  Status ValidateRec(PageId page, bool is_root, uint16_t expect_height,
                     TreeStatsInfo* stats);

  [[nodiscard]] Status VisitRec(PageId page, bool is_root, uint64_t base,
                  const std::function<Status(const LeafInfo&)>& fn);

  TreeConfig config_;
};

}  // namespace lob

#endif  // LOB_LOBTREE_POSITIONAL_TREE_H_
