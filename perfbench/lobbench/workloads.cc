#include "lobbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <utility>

#include "core/database.h"
#include "core/factory.h"
#include "lobbench/trace.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Generator primitives and the oracle.

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

BytePool::BytePool(uint64_t seed, uint64_t span)
    : span_(span), bytes_(span + kSliceMax, '\0') {
  Rng rng(seed ^ 0x5eedb17e5ull);
  for (size_t i = 0; i + 8 <= bytes_.size(); i += 8) {
    const uint64_t w = rng.Next();
    std::memcpy(&bytes_[i], &w, 8);
  }
}

namespace {
uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }
}  // namespace

uint64_t Hash(std::string_view bytes) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  uint64_t h[4] = {bytes.size(), 0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                   0xA4093822299F31D0ull};
  const char* p = bytes.data();
  size_t i = 0;
  for (; i + 32 <= bytes.size(); i += 32) {
    for (int k = 0; k < 4; ++k) {
      uint64_t w;
      std::memcpy(&w, p + i + 8 * k, 8);
      h[k] = (h[k] ^ w) * kMul;
      h[k] ^= h[k] >> 29;
    }
  }
  for (; i < bytes.size(); ++i) {
    h[0] = (h[0] ^ static_cast<unsigned char>(p[i])) * kMul;
  }
  uint64_t r = h[0] ^ Rotl(h[1], 17) ^ Rotl(h[2], 31) ^ Rotl(h[3], 47);
  r = (r ^ (r >> 32)) * kMul;
  return r ^ (r >> 29);
}

// Content keeps its pieces in blocks of bounded length so that locating a
// position costs a scan of block totals plus one block, not of every piece:
// a 10 MB document edited 100k times holds tens of thousands of pieces.
void Content::Append(Piece p) {
  if (p.len == 0) return;
  if (blocks_.empty() || blocks_.back().pieces.size() >= kBlockPieces) {
    blocks_.emplace_back();
  }
  blocks_.back().pieces.push_back(p);
  blocks_.back().bytes += p.len;
  size_ += p.len;
}

Content::Cursor Content::SplitAt(uint64_t pos) {
  uint64_t at = 0;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    Block& block = blocks_[b];
    if (pos >= at + block.bytes) {
      at += block.bytes;
      continue;
    }
    for (size_t i = 0; i < block.pieces.size(); ++i) {
      const Piece p = block.pieces[i];
      if (pos == at) return {b, i};
      if (pos < at + p.len) {
        const uint64_t head = pos - at;
        block.pieces[i].len = head;
        block.pieces.insert(block.pieces.begin() + static_cast<long>(i) + 1,
                            Piece{p.src + head, p.len - head});
        return {b, i + 1};
      }
      at += p.len;
    }
  }
  return {blocks_.size(), 0};
}

void Content::SplitBlockIfLong(size_t b) {
  if (blocks_[b].pieces.size() < 2 * kBlockPieces) return;
  Block tail;
  auto mid = blocks_[b].pieces.begin() + static_cast<long>(kBlockPieces);
  tail.pieces.assign(mid, blocks_[b].pieces.end());
  blocks_[b].pieces.erase(mid, blocks_[b].pieces.end());
  for (const Piece& p : tail.pieces) tail.bytes += p.len;
  blocks_[b].bytes -= tail.bytes;
  blocks_.insert(blocks_.begin() + static_cast<long>(b) + 1, std::move(tail));
}

void Content::Insert(uint64_t pos, Piece p) {
  if (p.len == 0) return;
  const Cursor c = SplitAt(pos);
  if (c.block == blocks_.size()) {
    Append(p);
    return;
  }
  Block& block = blocks_[c.block];
  block.pieces.insert(block.pieces.begin() + static_cast<long>(c.piece), p);
  block.bytes += p.len;
  size_ += p.len;
  SplitBlockIfLong(c.block);
}

void Content::Erase(uint64_t pos, uint64_t n) {
  while (n > 0) {
    const Cursor c = SplitAt(pos);
    Block& block = blocks_[c.block];
    Piece& p = block.pieces[c.piece];
    const uint64_t take = std::min(p.len, n);
    if (take == p.len) {
      block.pieces.erase(block.pieces.begin() + static_cast<long>(c.piece));
    } else {
      p.src += take;
      p.len -= take;
    }
    block.bytes -= take;
    size_ -= take;
    n -= take;
    if (block.pieces.empty()) {
      blocks_.erase(blocks_.begin() + static_cast<long>(c.block));
    }
  }
}

void Content::Gather(const BytePool& pool, uint64_t pos, uint64_t n,
                     std::string* out) const {
  out->clear();
  out->reserve(n);
  uint64_t at = 0;
  for (const Block& block : blocks_) {
    if (out->size() == n) break;
    if (pos >= at + block.bytes) {
      at += block.bytes;
      continue;
    }
    for (const Piece& p : block.pieces) {
      if (out->size() == n) break;
      if (pos < at + p.len) {
        const uint64_t from = std::max(pos, at) - at;
        const uint64_t take = std::min(p.len - from, n - out->size());
        out->append(pool.Slice(p.src + from, take));
      }
      at += p.len;
    }
  }
}

// ---------------------------------------------------------------------------
// Plans.

namespace {

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * 1024;
/// One read in kSampleEvery is hashed and checked against the oracle.
constexpr uint64_t kSampleEvery = 8;

/// Hashes the oracle's bytes for a sampled read.
class Sampler {
 public:
  Sampler(const BytePool& pool, Plan* plan) : pool_(pool), plan_(plan) {}
  bool Next() { return reads_++ % kSampleEvery == 0; }
  void Expect(const Content& c, uint64_t off, uint64_t len) {
    c.Gather(pool_, off, len, &scratch_);
    plan_->expected.push_back(Hash(scratch_));
  }

 private:
  const BytePool& pool_;
  Plan* plan_;
  uint64_t reads_ = 0;
  std::string scratch_;
};

/// Draws from a shuffled deck, reshuffled whenever it runs out: each block
/// of cards.size() draws holds every value exactly as often as `cards` does,
/// in a seeded random order. Op mixes are drawn this way so that every seed
/// runs the stated mix exactly and seeds differ only in which objects,
/// offsets and sizes the ops touch.
class Deck {
 public:
  explicit Deck(std::vector<uint8_t> cards)
      : cards_(std::move(cards)), next_(cards_.size()) {}
  uint8_t Draw(Rng& rng) {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng.Below(i + 1)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<uint8_t> cards_;
  size_t next_;
};

void Finish(Plan* plan, std::vector<Content> contents, std::vector<bool> live) {
  plan->live_bytes_at_end = 0;
  for (size_t i = 0; i < contents.size(); ++i) {
    if (live[i]) plan->live_bytes_at_end += contents[i].size();
  }
  plan->final_content = std::move(contents);
  plan->live_at_end = std::move(live);
}

// doc_edit: the paper's 4.4 update mix on the tree engines. Six 10 MB
// documents (3 ESM leaf=4, 3 EOS T=4) built from 256 B - 4 KB paragraph
// appends; each op picks a document uniformly and is 40% read, 30% insert,
// 30% delete at a uniform position. Sizes are 100 B +-50% for 3/4 of ops and
// 10 KB +-50% for 1/4 (the paper's two smaller sizes; the unequal split keeps
// the median off the gap between the modes). A delete removes as many bytes
// as that document's previous insert added, so sizes stay level.
Plan MakeDocEdit(uint64_t seed, uint64_t n_ops, const BytePool& pool) {
  constexpr uint32_t kDocs = 6;
  constexpr uint64_t kDocBytes = 10 * kMiB;
  Plan plan;
  Rng rng(seed);
  Sampler sampler(pool, &plan);
  std::vector<Content> docs(kDocs);
  for (uint32_t d = 0; d < kDocs; ++d) {
    plan.engines.push_back(d < kDocs / 2 ? EngineSpec{lob::Engine::kEsm, 4}
                                         : EngineSpec{lob::Engine::kEos, 4});
    plan.setup.push_back({.kind = OpKind::kCreate, .target = d});
    while (docs[d].size() < kDocBytes) {
      const Piece p{pool.RandomOffset(rng), rng.Between(256, 4 * kKiB)};
      plan.setup.push_back(
          {.kind = OpKind::kAppend, .target = d, .len = p.len, .src = p.src});
      docs[d].Append(p);
    }
  }
  std::vector<uint64_t> last_insert(kDocs, 0);
  Deck kinds({0, 0, 0, 0, 1, 1, 1, 2, 2, 2});  // read, insert, delete
  Deck sizes({0, 0, 0, 1});                    // ~100 B, ~10 KB
  while (plan.ops.size() < n_ops) {
    const uint32_t d = static_cast<uint32_t>(rng.Below(kDocs));
    const uint8_t kind = kinds.Draw(rng);
    const uint64_t size = sizes.Draw(rng) == 0
                              ? rng.Between(50, 150)
                              : rng.Between(5 * kKiB, 15 * kKiB);
    Content& doc = docs[d];
    Op op{.target = d};
    if (kind == 0) {
      op.kind = OpKind::kRead;
      op.len = std::min(size, doc.size());
      op.off = rng.Between(0, doc.size() - op.len);
      op.sampled = sampler.Next();
      if (op.sampled) sampler.Expect(doc, op.off, op.len);
    } else if (kind == 1) {
      op.kind = OpKind::kInsert;
      op.off = rng.Between(0, doc.size());
      op.len = size;
      op.src = pool.RandomOffset(rng);
      doc.Insert(op.off, {op.src, op.len});
      last_insert[d] = size;
    } else {
      op.kind = OpKind::kDelete;
      op.len = std::min(last_insert[d] != 0 ? last_insert[d] : size,
                        doc.size());
      op.off = rng.Between(0, doc.size() - op.len);
      doc.Erase(op.off, op.len);
    }
    plan.ops.push_back(op);
  }
  Finish(&plan, std::move(docs), std::vector<bool>(kDocs, true));
  return plan;
}

// media_stream: ingest and playback of large objects. A ring of 16 x 32 MB
// objects (8 Starburst, 8 EOS T=16; 512 MB, several times the host's L3)
// ingested in 1 MB appends. Ops: 70% 1 MB playback reads at 1 MB-aligned
// offsets, 10% ranged reads of 4 KB - 256 KB, 20% 1 MB appends to the
// recording object. When that reaches 32 MB it is sealed (Trim), the oldest
// object is destroyed and a new one created, so live bytes stay level. The
// recording object's fill at the start depends on the seed.
Plan MakeMediaStream(uint64_t seed, uint64_t n_ops, const BytePool& pool) {
  constexpr uint32_t kRing = 16;
  constexpr uint64_t kChunk = kMiB;
  constexpr uint64_t kObjectBytes = 32 * kChunk;
  Plan plan;
  Rng rng(seed);
  Sampler sampler(pool, &plan);
  std::vector<Content> objs(kRing);
  std::vector<bool> live(kRing, true);
  std::deque<uint32_t> ring;  // oldest first; the back one is recording
  auto append = [&](std::vector<Op>* ops, uint32_t s) {
    const Piece p{pool.RandomOffset(rng), kChunk};
    ops->push_back(
        {.kind = OpKind::kAppend, .target = s, .len = p.len, .src = p.src});
    objs[s].Append(p);
  };
  for (uint32_t s = 0; s < kRing; ++s) {
    plan.engines.push_back(s % 2 == 0 ? EngineSpec{lob::Engine::kStarburst, 0}
                                      : EngineSpec{lob::Engine::kEos, 16});
    plan.setup.push_back({.kind = OpKind::kCreate, .target = s});
    const bool recording = s + 1 == kRing;
    const uint64_t chunks =
        recording ? rng.Below(kObjectBytes / kChunk) : kObjectBytes / kChunk;
    for (uint64_t c = 0; c < chunks; ++c) append(&plan.setup, s);
    if (!recording) plan.setup.push_back({.kind = OpKind::kTrim, .target = s});
    ring.push_back(s);
  }
  // A ring member holding at least `bytes`, drawn uniformly.
  auto pick = [&](uint64_t bytes) {
    for (;;) {
      const uint32_t s = ring[rng.Below(kRing)];
      if (objs[s].size() >= bytes) return s;
    }
  };
  Deck kinds({0, 0, 0, 0, 0, 0, 0, 1, 2, 2});  // playback, ranged, append
  while (plan.ops.size() < n_ops) {
    const uint8_t kind = kinds.Draw(rng);
    if (kind != 2) {
      Op op{.kind = OpKind::kRead};
      if (kind == 0) {
        op.target = pick(kChunk);
        op.len = kChunk;
        op.off = rng.Below(objs[op.target].size() / kChunk) * kChunk;
      } else {
        op.len = rng.Between(4 * kKiB, 256 * kKiB);
        op.target = pick(op.len);
        op.off = rng.Between(0, objs[op.target].size() - op.len);
      }
      op.sampled = sampler.Next();
      if (op.sampled) sampler.Expect(objs[op.target], op.off, op.len);
      plan.ops.push_back(op);
      continue;
    }
    const uint32_t rec = ring.back();
    append(&plan.ops, rec);
    if (objs[rec].size() < kObjectBytes || plan.ops.size() == n_ops) continue;
    const uint32_t oldest = ring.front();
    const uint32_t fresh = static_cast<uint32_t>(plan.engines.size());
    plan.ops.push_back({.kind = OpKind::kRotate,
                        .target = rec,
                        .drop = oldest,
                        .create = fresh});
    plan.engines.push_back(plan.engines[oldest]);
    objs[oldest].Clear();
    live[oldest] = false;
    objs.emplace_back();
    live.push_back(true);
    ring.pop_front();
    ring.push_back(fresh);
  }
  Finish(&plan, std::move(objs), std::move(live));
  return plan;
}

// catalog_churn: many named objects behind Database. 4000 slots, engines
// round-robin ESM leaf=4 / EOS T=4 / Starburst, sizes log-uniform 1 KB -
// 256 KB. Reads pick a slot by Zipf(0.99) through a seeded permutation, so
// hot objects are spread over the catalog chain: 45% lookup + whole read,
// 15% lookup + 64 B - 8 KB ranged read. Writes: 15% create into a free
// slot (a drop instead while every slot is full), 15% drop of a uniform
// live slot, 10% lookup + 1-16 KB append to a uniform live slot.
//
// The initial objects' sizes and the rank permutation come from a fixed
// layout seed, and only the traffic from --seed: under Zipf(0.99) the top
// ten ranks take a third of the reads, so a per-seed layout would make the
// read cost hinge on the sizes and chain positions of a few objects.
Plan MakeCatalogChurn(uint64_t seed, uint64_t n_ops, const BytePool& pool) {
  constexpr uint32_t kSlots = 4000;
  constexpr double kZipfTheta = 0.99;
  constexpr uint64_t kLayoutSeed = 0x1a9e0;
  Plan plan;
  plan.uses_database = true;
  Rng layout(kLayoutSeed);
  Rng rng(seed);
  Sampler sampler(pool, &plan);
  std::vector<Content> objs(kSlots);
  std::vector<bool> live(kSlots, false);
  // Live and free slot sets with O(1) uniform picks and removals.
  std::vector<uint32_t> used, unused;
  std::vector<size_t> where(kSlots);
  auto move_slot = [&](uint32_t s, std::vector<uint32_t>* from,
                       std::vector<uint32_t>* to) {
    const size_t i = where[s];
    where[from->back()] = i;
    (*from)[i] = from->back();
    from->pop_back();
    where[s] = to->size();
    to->push_back(s);
  };
  const double log_lo = std::log(1.0 * kKiB), log_hi = std::log(256.0 * kKiB);
  auto create = [&](Rng& r, std::vector<Op>* ops, uint32_t s) {
    const Piece p{pool.RandomOffset(r),
                  static_cast<uint64_t>(
                      std::exp(log_lo + r.Unit() * (log_hi - log_lo)))};
    ops->push_back(
        {.kind = OpKind::kCreate, .target = s, .len = p.len, .src = p.src});
    objs[s].Append(p);
    live[s] = true;
    move_slot(s, &unused, &used);
  };
  for (uint32_t s = 0; s < kSlots; ++s) {
    plan.engines.push_back(s % 3 == 0   ? EngineSpec{lob::Engine::kEsm, 4}
                           : s % 3 == 1 ? EngineSpec{lob::Engine::kEos, 4}
                                        : EngineSpec{lob::Engine::kStarburst, 0});
    where[s] = unused.size();
    unused.push_back(s);
  }
  for (uint32_t s = 0; s < kSlots; ++s) create(layout, &plan.setup, s);

  std::vector<uint32_t> perm(kSlots);
  for (uint32_t s = 0; s < kSlots; ++s) perm[s] = s;
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    std::swap(perm[i], perm[layout.Below(i + 1)]);
  }
  std::vector<double> cdf(kSlots);
  double total = 0;
  for (uint32_t r = 0; r < kSlots; ++r) {
    total += 1.0 / std::pow(r + 1.0, kZipfTheta);
    cdf[r] = total;
  }
  auto zipf_live = [&] {
    for (;;) {
      const double u = rng.Unit() * total;
      const size_t r = static_cast<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const uint32_t s = perm[std::min<size_t>(r, kSlots - 1)];
      if (live[s]) return s;
    }
  };
  enum : uint8_t { kWhole, kRanged, kNew, kGone, kMore };
  Deck kinds({kWhole, kWhole, kWhole, kWhole, kWhole, kWhole, kWhole, kWhole,
              kWhole, kRanged, kRanged, kRanged, kNew, kNew, kNew, kGone,
              kGone, kGone, kMore, kMore});
  while (plan.ops.size() < n_ops) {
    uint8_t kind = kinds.Draw(rng);
    if (kind == kNew && unused.empty()) kind = kGone;
    if (kind == kWhole || kind == kRanged) {
      const uint32_t s = zipf_live();
      const Content& obj = objs[s];
      Op op{.kind = OpKind::kReadWhole, .target = s, .len = obj.size()};
      if (kind == kRanged) {
        op.kind = OpKind::kRead;
        op.len = std::min<uint64_t>(rng.Between(64, 8 * kKiB), obj.size());
        op.off = rng.Between(0, obj.size() - op.len);
      }
      op.sampled = sampler.Next();
      if (op.sampled) sampler.Expect(obj, op.off, op.len);
      plan.ops.push_back(op);
    } else if (kind == kNew) {
      create(rng, &plan.ops, unused[rng.Below(unused.size())]);
    } else if (kind == kGone) {
      const uint32_t s = used[rng.Below(used.size())];
      plan.ops.push_back({.kind = OpKind::kDrop, .target = s});
      objs[s].Clear();
      live[s] = false;
      move_slot(s, &used, &unused);
    } else {
      const uint32_t s = used[rng.Below(used.size())];
      const Piece p{pool.RandomOffset(rng), rng.Between(1 * kKiB, 16 * kKiB)};
      plan.ops.push_back(
          {.kind = OpKind::kAppend, .target = s, .len = p.len, .src = p.src});
      objs[s].Append(p);
    }
  }
  Finish(&plan, std::move(objs), std::move(live));
  return plan;
}

// ---------------------------------------------------------------------------
// Stores.

Site EngineSite(lob::Engine engine) {
  switch (engine) {
    case lob::Engine::kEsm: return Site::kEsmCall;
    case lob::Engine::kEos: return Site::kEosCall;
    case lob::Engine::kStarburst: break;
  }
  return Site::kStarburstCall;
}

lob::Status MismatchedOp(const Op& op) {
  return lob::Status::Internal("op kind " +
                               std::to_string(static_cast<int>(op.kind)) +
                               " does not belong to this workload");
}

/// doc_edit and media_stream: objects on a bare StorageSystem, one manager
/// per (engine, parameter), addressed by the plan's object serials.
class ObjectStore : public Store {
 public:
  ObjectStore(const Plan& plan, const BytePool& pool)
      : pool_(pool), objs_(plan.engines.size()) {
    for (size_t s = 0; s < plan.engines.size(); ++s) {
      const EngineSpec& e = plan.engines[s];
      auto& mgr = managers_[{e.engine, e.param}];
      if (mgr == nullptr) {
        mgr = e.engine == lob::Engine::kEsm ? lob::CreateEsmManager(&sys_, e.param)
              : e.engine == lob::Engine::kEos
                  ? lob::CreateEosManager(&sys_, e.param)
                  : lob::CreateStarburstManager(&sys_);
      }
      objs_[s].mgr = mgr.get();
      objs_[s].site = EngineSite(e.engine);
    }
  }

  lob::StorageSystem* sys() override { return &sys_; }

  lob::Status Execute(const Op& op, std::string* out) override {
    Obj& o = objs_[op.target];
    switch (op.kind) {
      case OpKind::kRead: {
        ScopedSpan span(o.site);
        return o.mgr->Read(o.id, op.off, op.len, out);
      }
      case OpKind::kInsert: {
        ScopedSpan span(o.site);
        return o.mgr->Insert(o.id, op.off, pool_.Slice(op.src, op.len));
      }
      case OpKind::kDelete: {
        ScopedSpan span(o.site);
        return o.mgr->Delete(o.id, op.off, op.len);
      }
      case OpKind::kAppend: {
        ScopedSpan span(o.site);
        return o.mgr->Append(o.id, pool_.Slice(op.src, op.len));
      }
      case OpKind::kCreate:
        return Create(op.target);
      case OpKind::kTrim: {
        ScopedSpan span(o.site);
        return o.mgr->Trim(o.id);
      }
      case OpKind::kRotate: {
        {
          ScopedSpan span(o.site);
          LOB_RETURN_IF_ERROR(o.mgr->Trim(o.id));
        }
        Obj& old = objs_[op.drop];
        {
          ScopedSpan span(old.site);
          LOB_RETURN_IF_ERROR(old.mgr->Destroy(old.id));
        }
        old.live = false;
        return Create(op.create);
      }
      case OpKind::kReadWhole:
      case OpKind::kDrop:
        break;
    }
    return MismatchedOp(op);
  }

  lob::Status ReadAll(uint32_t target, std::string* out) override {
    Obj& o = objs_[target];
    auto size = o.mgr->Size(o.id);
    if (!size.ok()) return size.status();
    return o.mgr->Read(o.id, 0, *size, out);
  }

  lob::StatusOr<lob::FsckReport> Fsck() override {
    std::vector<std::pair<lob::ObjectId, lob::LargeObjectManager*>> live;
    for (const Obj& o : objs_) {
      if (o.live) live.emplace_back(o.id, o.mgr);
    }
    return lob::FsckObjects(&sys_, live);
  }

  lob::StatusOr<uint16_t> MaxTreeHeight() override {
    lob::StorageSystem::UnmeteredSection unmetered(&sys_);
    uint16_t height = 0;
    for (const Obj& o : objs_) {
      if (!o.live) continue;
      auto stats = o.mgr->GetStorageStats(o.id);
      if (!stats.ok()) return stats.status();
      height = std::max(height, stats->tree_height);
    }
    return height;
  }

  lob::StatusOr<uint64_t> CatalogPages() override { return uint64_t{0}; }

 private:
  struct Obj {
    lob::LargeObjectManager* mgr = nullptr;
    lob::ObjectId id = lob::kInvalidPage;
    Site site = Site::kEsmCall;
    bool live = false;
  };

  lob::Status Create(uint32_t serial) {
    Obj& o = objs_[serial];
    ScopedSpan span(o.site);
    auto id = o.mgr->Create();
    if (!id.ok()) return id.status();
    o.id = *id;
    o.live = true;
    return lob::Status::OK();
  }

  const BytePool& pool_;
  lob::StorageSystem sys_;
  std::map<std::pair<lob::Engine, uint32_t>,
           std::unique_ptr<lob::LargeObjectManager>>
      managers_;
  std::vector<Obj> objs_;
};

/// catalog_churn: named objects behind a Database. Reads and appends go
/// name -> Lookup -> ManagerForObject (the engine read from the root), as a
/// client that only knows names would.
class CatalogStore : public Store {
 public:
  CatalogStore(const Plan& plan, const BytePool& pool,
               std::unique_ptr<lob::Database> db)
      : plan_(plan), pool_(pool), db_(std::move(db)) {
    names_.reserve(plan.engines.size());
    char name[32];
    for (size_t s = 0; s < plan.engines.size(); ++s) {
      std::snprintf(name, sizeof(name), "slot-%04zu", s);
      names_.emplace_back(name);
    }
  }

  lob::StorageSystem* sys() override { return db_->sys(); }

  lob::Status Execute(const Op& op, std::string* out) override {
    const std::string& name = names_[op.target];
    switch (op.kind) {
      case OpKind::kReadWhole:
      case OpKind::kRead:
      case OpKind::kAppend: {
        lob::ObjectId id;
        lob::LargeObjectManager* mgr;
        LOB_RETURN_IF_ERROR(Resolve(name, &id, &mgr));
        ScopedSpan span(EngineSite(mgr->engine()));
        if (op.kind == OpKind::kAppend) {
          return mgr->Append(id, pool_.Slice(op.src, op.len));
        }
        if (op.kind == OpKind::kRead) return mgr->Read(id, op.off, op.len, out);
        auto size = mgr->Size(id);
        if (!size.ok()) return size.status();
        return mgr->Read(id, 0, *size, out);
      }
      case OpKind::kCreate: {
        const EngineSpec& e = plan_.engines[op.target];
        lob::StatusOr<lob::ObjectId> id = lob::kInvalidPage;
        {
          ScopedSpan span(Site::kDbCreateObject);
          id = db_->CreateObject(name, e.engine, e.param);
        }
        if (!id.ok()) return id.status();
        lob::StatusOr<lob::LargeObjectManager*> mgr = nullptr;
        {
          ScopedSpan span(Site::kDbManagerFor);
          mgr = db_->ManagerFor(e.engine, e.param);
        }
        if (!mgr.ok()) return mgr.status();
        ScopedSpan span(EngineSite(e.engine));
        return (*mgr)->Append(*id, pool_.Slice(op.src, op.len));
      }
      case OpKind::kDrop: {
        ScopedSpan span(Site::kDbDropObject);
        return db_->DropObject(name);
      }
      case OpKind::kInsert:
      case OpKind::kDelete:
      case OpKind::kTrim:
      case OpKind::kRotate:
        break;
    }
    return MismatchedOp(op);
  }

  lob::Status ReadAll(uint32_t target, std::string* out) override {
    lob::ObjectId id;
    lob::LargeObjectManager* mgr;
    LOB_RETURN_IF_ERROR(Resolve(names_[target], &id, &mgr));
    auto size = mgr->Size(id);
    if (!size.ok()) return size.status();
    return mgr->Read(id, 0, *size, out);
  }

  lob::StatusOr<lob::FsckReport> Fsck() override {
    return lob::FsckDatabase(db_.get(), kParam);
  }

  lob::StatusOr<uint16_t> MaxTreeHeight() override {
    lob::StorageSystem::UnmeteredSection unmetered(db_->sys());
    uint16_t height = 0;
    for (size_t s = 0; s < names_.size(); ++s) {
      if (!plan_.live_at_end[s]) continue;
      lob::ObjectId id;
      lob::LargeObjectManager* mgr;
      LOB_RETURN_IF_ERROR(Resolve(names_[s], &id, &mgr));
      auto stats = mgr->GetStorageStats(id);
      if (!stats.ok()) return stats.status();
      height = std::max(height, stats->tree_height);
    }
    return height;
  }

  lob::StatusOr<uint64_t> CatalogPages() override {
    auto pages = db_->catalog()->Pages();
    if (!pages.ok()) return pages.status();
    return static_cast<uint64_t>(pages->size());
  }

 private:
  /// ESM leaf pages and EOS threshold of every catalog object.
  static constexpr uint32_t kParam = 4;

  lob::Status Resolve(const std::string& name, lob::ObjectId* id,
                      lob::LargeObjectManager** mgr) {
    {
      ScopedSpan span(Site::kDbLookup);
      auto found = db_->Lookup(name);
      if (!found.ok()) return found.status();
      *id = *found;
    }
    ScopedSpan span(Site::kDbManagerForObject);
    auto m = db_->ManagerForObject(*id, kParam);
    if (!m.ok()) return m.status();
    *mgr = *m;
    return lob::Status::OK();
  }

  const Plan& plan_;
  const BytePool& pool_;
  std::unique_ptr<lob::Database> db_;
  std::vector<std::string> names_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"doc_edit", "media_stream",
                                                  "catalog_churn"};
  return kNames;
}

uint64_t DefaultOpsPerRound(const std::string& workload) {
  if (workload == "doc_edit") return 100000;
  if (workload == "media_stream") return 8000;
  return 6000;
}

Plan MakePlan(const std::string& workload, uint64_t seed, uint64_t ops,
              const BytePool& pool) {
  if (workload == "doc_edit") return MakeDocEdit(seed, ops, pool);
  if (workload == "media_stream") return MakeMediaStream(seed, ops, pool);
  if (workload == "catalog_churn") return MakeCatalogChurn(seed, ops, pool);
  return Plan{};
}

lob::StatusOr<std::unique_ptr<Store>> MakeStore(const Plan& plan,
                                                const BytePool& pool) {
  if (!plan.uses_database) {
    return std::unique_ptr<Store>(new ObjectStore(plan, pool));
  }
  auto db = lob::Database::Create();
  if (!db.ok()) return db.status();
  return std::unique_ptr<Store>(new CatalogStore(plan, pool, std::move(*db)));
}

}  // namespace perfbench
