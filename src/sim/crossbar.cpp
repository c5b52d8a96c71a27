#include "sim/crossbar.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "sim/replay_program.hpp"
#include "sim/segment_trace.hpp"

namespace pypim
{

namespace
{

/** Max blocks per column: rows <= 65536 (geometry invariant) gives
 *  <= 1024 words <= 128 blocks — small enough for stack bitmaps. */
constexpr uint32_t kMaxBlocksPerCol =
    (65536 / 64 + Crossbar::kBlockWords - 1) / Crossbar::kBlockWords;

/** All-zero block every absent read resolves to. */
constexpr uint64_t kZeroBlock[Crossbar::kBlockWords] = {};

/** All-zero column every entirely-absent run input resolves to. */
constexpr uint64_t kZeroCol[kMaxBlocksPerCol * Crossbar::kBlockWords] =
    {};

bool
allZero(const uint64_t *w, uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        if (w[i])
            return false;
    return true;
}

/**
 * In-place 64x64 bit-matrix transpose: on return, bit p of x[k]
 * equals bit k of the old x[p]. Hacker's Delight 7-3 with the shift
 * directions flipped for this codebase's LSB-0 bit numbering (the
 * textbook form assumes MSB-0 and would compute the anti-diagonal
 * transpose here).
 */
void
transpose64(uint64_t x[64])
{
    uint64_t m = 0x00000000FFFFFFFFull;
    for (uint32_t j = 32; j; j >>= 1, m ^= m << j) {
        for (uint32_t k = 0; k < 64; k = (k + j + 1) & ~j) {
            const uint64_t t = ((x[k] >> j) ^ x[k | j]) & m;
            x[k] ^= t << j;
            x[k | j] ^= t;
        }
    }
}

/** 64-bit word mask selecting bits [off, off+take). */
uint64_t
windowMask(uint32_t off, uint32_t take)
{
    // take == 64 implies off == 0 (windows are 64-aligned after the
    // first), and 1ull << 64 would be UB.
    return take == 64 ? ~0ull : ((1ull << take) - 1) << off;
}

} // namespace

/**
 * Refcounted pool of blocks backing one paged crossbar and every
 * snapshot taken from it. A block holds kBlockWords words, or the
 * whole column when it is shorter (a 128-row column is 2 words), so a
 * shallow crossbar's present state takes the bytes, and the cache
 * lines, dense storage would. Freed slots are recycled through a free
 * list; alloc() always returns an all-zero block (the invariant every
 * densification relies on). Refcounts are plain integers — see the
 * synchronisation contract in crossbar.hpp.
 */
class BlockPool
{
  public:
    explicit BlockPool(uint32_t blockWords) : bw_(blockWords) {}

    /** Words per block (the pool's stride). */
    uint32_t blockWords() const { return bw_; }

    /** A fresh all-zero block with refcount 1. */
    uint32_t
    alloc()
    {
        if (!free_.empty()) {
            const uint32_t id = free_.back();
            free_.pop_back();
            refs_[id] = 1;
            uint64_t *w = words(id);
            std::fill(w, w + bw_, 0);
            return id;
        }
        const uint32_t id = static_cast<uint32_t>(refs_.size());
        refs_.push_back(1);
        words_.resize(words_.size() + bw_, 0);
        return id;
    }

    /**
     * @p n consecutive all-zero blocks with refcount 1 (a column run),
     * or Crossbar::kAbsent. The free list is reused only when its top
     * @p n ids are consecutive (a run freed whole, as compact() and
     * resetState() push them); otherwise the run is appended only
     * while the free list is empty. A run thus never strands free
     * blocks — the pool stays the size n alloc() calls would leave.
     */
    uint32_t
    allocRun(uint32_t n)
    {
        if (free_.empty()) {
            const uint32_t id = static_cast<uint32_t>(refs_.size());
            refs_.resize(refs_.size() + n, 1);
            words_.resize(words_.size() + static_cast<size_t>(n) * bw_,
                          0);
            return id;
        }
        if (free_.size() < n)
            return Crossbar::kAbsent;
        const size_t top = free_.size() - n;
        const uint32_t id = free_[top];
        for (uint32_t i = 1; i < n; ++i)
            if (free_[top + i] != id + i)
                return Crossbar::kAbsent;
        free_.resize(top);
        std::fill(refs_.begin() + id, refs_.begin() + id + n, 1u);
        std::fill(words(id), words(id) + static_cast<size_t>(n) * bw_,
                  0);
        return id;
    }

    /** A copy of block @p id with refcount 1 (copy-on-write step). */
    uint32_t
    clone(uint32_t id)
    {
        const uint32_t nid = alloc();  // may grow words_: copy by index
        std::copy(words_.begin() + static_cast<size_t>(id) * bw_,
                  words_.begin() + static_cast<size_t>(id + 1) * bw_,
                  words_.begin() + static_cast<size_t>(nid) * bw_);
        return nid;
    }

    void
    ref(uint32_t id)
    {
        if (++refs_[id] == 2)
            ++shared_;
    }

    void
    unref(uint32_t id)
    {
        const uint32_t r = --refs_[id];
        if (r == 1)
            --shared_;
        else if (r == 0)
            free_.push_back(id);
    }

    uint32_t refCount(uint32_t id) const { return refs_[id]; }
    /** Blocks with a refcount above 1 (shared with a snapshot). */
    uint32_t sharedBlocks() const { return shared_; }
    const uint32_t *refsData() const { return refs_.data(); }
    uint64_t *wordsData() { return words_.data(); }

    uint64_t *
    words(uint32_t id)
    {
        return words_.data() + static_cast<size_t>(id) * bw_;
    }
    const uint64_t *
    words(uint32_t id) const
    {
        return words_.data() + static_cast<size_t>(id) * bw_;
    }

    /** Bytes this pool holds allocated (block words + bookkeeping). */
    uint64_t
    residentBytes() const
    {
        return words_.capacity() * sizeof(uint64_t) +
               refs_.capacity() * sizeof(uint32_t) +
               free_.capacity() * sizeof(uint32_t);
    }

  private:
    std::vector<uint64_t> words_;
    std::vector<uint32_t> refs_;
    std::vector<uint32_t> free_;
    uint32_t bw_;
    uint32_t shared_ = 0;
};

Crossbar::Crossbar(const Geometry &geo, XbarStorage storage)
    : geo_(&geo),
      wordsPerCol_((geo.rows + 63) / 64),
      blocksPerCol_((wordsPerCol_ + kBlockWords - 1) / kBlockWords),
      storage_(storage),
      state_(storage == XbarStorage::Dense
                 ? static_cast<size_t>(geo.cols) * wordsPerCol_
                 : 0,
             0)
{
    panicIf(blocksPerCol_ > kMaxBlocksPerCol,
            "crossbar: block table exceeds the geometry bound");
    // Paged: table_ and pool_ stay empty until the first
    // densification, so an untouched crossbar costs O(1) bytes — the
    // property the max-geometry sweep (bench_simulator) relies on.
}

// --- paged block plumbing -----------------------------------------------

void
Crossbar::allocTable()
{
    table_.assign(static_cast<size_t>(geo_->cols) * blocksPerCol_,
                  kAbsent);
    runs_.assign((geo_->cols + 63) / 64, 0);
    if (!pool_)
        pool_ = std::make_shared<BlockPool>(
            std::min(kBlockWords, wordsPerCol_));
}

const uint64_t *
Crossbar::blockRO(uint32_t col, uint32_t b) const
{
    if (table_.empty())
        return nullptr;
    const uint32_t id = table_[tableIndex(col, b)];
    return id == kAbsent ? nullptr : pool_->words(id);
}

uint64_t *
Crossbar::blockRW(uint32_t col, uint32_t b)
{
    ensureTable();
    uint32_t &id = table_[tableIndex(col, b)];
    if (id == kAbsent) {
        id = pool_->alloc();
    } else if (pool_->refCount(id) > 1) {
        const uint32_t nid = pool_->clone(id);
        pool_->unref(id);
        id = nid;
        clearRun(col);
    }
    return pool_->words(id);
}

uint64_t *
Crossbar::blockIfPresent(uint32_t col, uint32_t b)
{
    if (table_.empty())
        return nullptr;
    uint32_t &id = table_[tableIndex(col, b)];
    if (id == kAbsent)
        return nullptr;
    if (pool_->refCount(id) > 1) {
        const uint32_t nid = pool_->clone(id);
        pool_->unref(id);
        id = nid;
        clearRun(col);
    }
    return pool_->words(id);
}

// --- contiguous column runs ---------------------------------------------

bool
Crossbar::colAbsent(uint32_t col) const
{
    if (table_.empty())
        return true;
    const uint32_t *ids = table_.data() + tableIndex(col, 0);
    for (uint32_t b = 0; b < blocksPerCol_; ++b)
        if (ids[b] != kAbsent)
            return false;
    return true;
}

// The run fast paths below are small and sit on the replay hot path:
// they are defined inline here, ahead of every caller, while the
// per-block fallbacks and the run allocation stay out of line.

inline Crossbar::PagedView
Crossbar::pagedView() const
{
    PagedView v;
    if (table_.empty())
        return v;
    v.table = table_.data();
    v.runs = runs_.data();
    v.refs = pool_->refsData();
    v.words = pool_->wordsData();
    v.blocksPerCol = blocksPerCol_;
    v.blockStride = pool_->blockWords();
    v.anyShared = pool_->sharedBlocks() != 0;
    return v;
}

bool
Crossbar::columnIsRun(uint32_t col) const
{
    return !table_.empty() && isRun(col);
}

template <bool kOne>
inline const uint64_t *
Crossbar::PagedView::runRO(uint32_t col) const
{
    if constexpr (kOne) {
        const uint32_t id = table[col];
        return id == kAbsent
            ? kZeroCol
            : words + static_cast<size_t>(id) * blockStride;
    }
    if (!table)
        return kZeroCol;
    const uint32_t *ids = table + static_cast<size_t>(col) * blocksPerCol;
    if (isRun(col))
        return words + static_cast<size_t>(ids[0]) * blockStride;
    for (uint32_t b = 0; b < blocksPerCol; ++b)
        if (ids[b] != kAbsent)
            return nullptr;
    return kZeroCol;
}

inline uint64_t *
Crossbar::runMaterialise(uint32_t col)
{
    if (uint64_t *w = runRW(col))
        return w;
    return allocColRun(col);
}

uint64_t *
Crossbar::allocColRun(uint32_t col)
{
    if (!colAbsent(col))
        return nullptr;
    ensureTable();
    const uint32_t id = pool_->allocRun(blocksPerCol_);
    if (id == kAbsent)
        return nullptr;
    uint32_t *ids = table_.data() + tableIndex(col, 0);
    for (uint32_t b = 0; b < blocksPerCol_; ++b)
        ids[b] = id + b;
    runs_[col >> 6] |= 1ull << (col & 63);
    return pool_->words(id);
}

// --- paged column kernels -----------------------------------------------

MaskBlocks
MaskBlocks::of(std::span<const uint64_t> words)
{
    constexpr uint32_t kBW = Crossbar::kBlockWords;
    const uint32_t n = static_cast<uint32_t>(words.size());
    const uint32_t blocks = (n + kBW - 1) / kBW;
    panicIf(blocks > kMaxBlocksPerCol,
            "MaskBlocks: mask exceeds the geometry bound");
    MaskBlocks m;
    uint32_t reached = 0;
    for (uint32_t b = 0; b < blocks; ++b) {
        const uint32_t lo = b * kBW;
        if (!allZero(words.data() + lo, std::min(n - lo, kBW))) {
            m.bits[b >> 6] |= 1ull << (b & 63);
            ++reached;
        }
    }
    m.every = reached == blocks;
    m.none = reached == 0;
    return m;
}

namespace
{

/** What the all-ones mask reaches: every block. */
constexpr MaskBlocks kEveryBlock{{~0ull, ~0ull}, true, false};
constexpr ColMask kFullMask{nullptr, &kEveryBlock};

/**
 * The word loop of column kind K over @p n words — the only copy of
 * each paged kernel's bit work, run over a whole-column span or one
 * block. @p m null is the all-ones mask: INIT collapses to a fill and
 * the gates drop the blend term.
 */
template <ColKind K>
inline void
colWordsOp(uint64_t *out, const uint64_t *a, const uint64_t *b,
           const uint64_t *m, uint32_t n)
{
    if constexpr (K == ColKind::Init0) {
        if (!m)
            std::fill(out, out + n, 0);
        else
            for (uint32_t w = 0; w < n; ++w)
                out[w] &= ~m[w];
    } else if constexpr (K == ColKind::Init1) {
        if (!m)
            std::fill(out, out + n, ~0ull);
        else
            for (uint32_t w = 0; w < n; ++w)
                out[w] |= m[w];
    } else if constexpr (K == ColKind::NotNor) {
        if (!m)
            for (uint32_t w = 0; w < n; ++w)
                out[w] &= ~(a[w] | b[w]);
        else
            for (uint32_t w = 0; w < n; ++w)
                out[w] &= ~((a[w] | b[w]) & m[w]);
    } else {
        if (!m)
            for (uint32_t w = 0; w < n; ++w)
                out[w] = ~(a[w] | b[w]);
        else
            for (uint32_t w = 0; w < n; ++w)
                out[w] = (out[w] & ~m[w]) | (~(a[w] | b[w]) & m[w]);
    }
}

/** Apply @p n LogicV gates in order to one column's words. */
inline void
vgateWords(uint64_t *words, const VGate *gs, size_t n)
{
    for (size_t k = 0; k < n; ++k) {
        const VGate &g = gs[k];
        switch (g.gate) {
          case Gate::Init0:
            words[g.outWord] &= ~g.outBit;
            break;
          case Gate::Init1:
            words[g.outWord] |= g.outBit;
            break;
          case Gate::Not:
            if ((words[g.inWord] >> g.inShift) & 1)
                words[g.outWord] &= ~g.outBit;
            break;
          case Gate::Nor:
            break;  // unreachable: rejected at emission
        }
    }
}

/** The column kind a LogicH gate computes (INIT1-fused or not). */
ColKind
colKindOf(Gate g, bool fused)
{
    if (fused)
        return ColKind::FusedNotNor;
    switch (g) {
      case Gate::Init0:
        return ColKind::Init0;
      case Gate::Init1:
        return ColKind::Init1;
      default:
        return ColKind::NotNor;
    }
}

} // namespace

template <ColKind K, bool kOne>
inline void
Crossbar::colOp(uint32_t outCol, uint32_t inA, uint32_t inB,
                const ColMask &m, PagedView &v)
{
    // Setting kinds lay an absent column out as a run only when the
    // mask reaches every block: the blocks the per-block loop would
    // densify. Clearing kinds never materialise.
    constexpr bool kSets =
        K == ColKind::Init1 || K == ColKind::FusedNotNor;
    uint64_t *out = v.runRW<kOne>(outCol);
    if (!out && kSets && m.blocks->every) {
        out = allocColRun(outCol);
        v = pagedView();  // the table or pool may have grown
    }
    if (out) {
        if constexpr (K == ColKind::Init0 || K == ColKind::Init1) {
            colWordsOp<K>(out, nullptr, nullptr, m.words, wordsPerCol_);
            return;
        } else {
            const uint64_t *a = v.runRO<kOne>(inA);  // after any growth
            const uint64_t *b = v.runRO<kOne>(inB);
            if (kOne || (a && b)) {  // single blocks always resolve
                colWordsOp<K>(out, a, b, m.words, wordsPerCol_);
                return;
            }
        }
    }
    colBlocks(K, outCol, inA, inB, m);
    v = pagedView();
}

inline void
Crossbar::colOp(ColKind k, uint32_t outCol, uint32_t inA, uint32_t inB,
                const ColMask &m, PagedView &v)
{
    switch (k) {
      case ColKind::Init0:
        colOp<ColKind::Init0>(outCol, inA, inB, m, v);
        break;
      case ColKind::Init1:
        colOp<ColKind::Init1>(outCol, inA, inB, m, v);
        break;
      case ColKind::NotNor:
        colOp<ColKind::NotNor>(outCol, inA, inB, m, v);
        break;
      case ColKind::FusedNotNor:
        colOp<ColKind::FusedNotNor>(outCol, inA, inB, m, v);
        break;
    }
}

void
Crossbar::colBlocks(ColKind k, uint32_t outCol, uint32_t inA,
                    uint32_t inB, const ColMask &m)
{
    for (uint32_t b = 0; b < blocksPerCol_; ++b) {
        // A block the mask does not reach is untouched by every kind,
        // so its presence never changes.
        if (m.words && !m.blocks->reaches(b))
            continue;
        const uint64_t *mb = m.words ? m.words + b * kBlockWords : nullptr;
        const uint32_t used = blockWords(b);
        switch (k) {
          case ColKind::Init0:
            // Only clears: an absent output block stays absent.
            if (uint64_t *out = blockIfPresent(outCol, b))
                colWordsOp<ColKind::Init0>(out, nullptr, nullptr, mb,
                                           used);
            break;
          case ColKind::Init1:
            colWordsOp<ColKind::Init1>(blockRW(outCol, b), nullptr,
                                       nullptr, mb, used);
            break;
          case ColKind::NotNor: {
            // Absent inputs read as zero, so with both absent out &= ~0
            // leaves the output block untouched — skip before cloning
            // anything. An absent output only clears: stays absent.
            const bool aIn = blockRO(inA, b) != nullptr;
            const bool bIn = blockRO(inB, b) != nullptr;
            if (!aIn && !bIn)
                break;
            uint64_t *out = blockIfPresent(outCol, b);
            if (!out)
                break;
            // Inputs AFTER the output's clone (the pool may move).
            colWordsOp<ColKind::NotNor>(
                out, aIn ? blockRO(inA, b) : kZeroBlock,
                bIn ? blockRO(inB, b) : kZeroBlock, mb, used);
            break;
          }
          case ColKind::FusedNotNor: {
            // Sets a bit wherever both inputs read zero, so the output
            // block materialises even when every operand is absent.
            uint64_t *out = blockRW(outCol, b);
            const uint64_t *a = blockRO(inA, b);
            const uint64_t *bb = blockRO(inB, b);
            colWordsOp<ColKind::FusedNotNor>(out, a ? a : kZeroBlock,
                                             bb ? bb : kZeroBlock, mb,
                                             used);
            break;
          }
        }
    }
}

template <bool kOne>
inline void
Crossbar::vgatesCol(uint32_t col, const VGate *gs, size_t n,
                    PagedView &v)
{
    // Every block of an unshared run is present, so the list runs on
    // its span with no presence change.
    if (uint64_t *w = v.runRW<kOne>(col)) {
        vgateWords(w, gs, n);
        return;
    }
    vgatesBlocks(col, gs, n);
    v = pagedView();
}

void
Crossbar::vgatesSlot(uint32_t slot, const VGate *gs, size_t n,
                     PagedView &v)
{
    const uint32_t pw = geo_->partitionWidth();
    PagedView lv = v;  // as in hSections
    const auto run = [&](auto one) {
        for (uint32_t p = 0; p < geo_->partitions; ++p)
            vgatesCol<decltype(one)::value>(p * pw + slot, gs, n, lv);
    };
    lv.oneBlock() ? run(std::true_type{}) : run(std::false_type{});
    v = lv;
}

void
Crossbar::vgatesBlocks(uint32_t col, const VGate *gs, size_t n)
{
    for (size_t k = 0; k < n; ++k) {
        // A gate that materialised a single-block column made it a
        // run: the rest of the list takes the span.
        if (uint64_t *w = runRW(col)) {
            vgateWords(w, gs + k, n - k);
            return;
        }
        const VGate &g = gs[k];
        const uint32_t bOut = g.outWord / kBlockWords;
        const uint32_t relOut = g.outWord % kBlockWords;
        switch (g.gate) {
          case Gate::Init0:
            if (uint64_t *blk = blockIfPresent(col, bOut))
                blk[relOut] &= ~g.outBit;
            break;
          case Gate::Init1:
            blockRW(col, bOut)[relOut] |= g.outBit;
            break;
          case Gate::Not: {
            // Extract the input bit BEFORE any clone can move blocks;
            // NOT(0)=1 cannot switch a stateful output.
            const uint64_t *in = blockRO(col, g.inWord / kBlockWords);
            if (!in || !((in[g.inWord % kBlockWords] >> g.inShift) & 1))
                break;
            if (uint64_t *out = blockIfPresent(col, bOut))
                out[relOut] &= ~g.outBit;
            break;
          }
          case Gate::Nor:
            break;  // unreachable: rejected at emission
        }
    }
}

template <ColKind K>
void
Crossbar::hSections(const Section *secs, uint32_t n, const ColMask &m,
                    PagedView &v)
{
    // A local copy the compiler can keep in registers across the
    // word loops' stores; single-block columns take the kOne
    // resolvers, decided once per op.
    PagedView lv = v;
    const auto run = [&](auto one) {
        for (uint32_t s = 0; s < n; ++s) {
            const Section &sec = secs[s];
            if (!sec.active())
                continue;
            const uint32_t inA = static_cast<uint32_t>(sec.inCol[0]);
            colOp<K, decltype(one)::value>(
                static_cast<uint32_t>(sec.outCol), inA,
                sec.numIn == 2 ? static_cast<uint32_t>(sec.inCol[1])
                               : inA,
                m, lv);
        }
    };
    lv.oneBlock() ? run(std::true_type{}) : run(std::false_type{});
    v = lv;
}

void
Crossbar::logicHPaged(const HalfGates &hg, bool fused, const ColMask &m,
                      PagedView &v)
{
    // Where the mask reaches no block every gate kind is a no-op.
    if (m.words && m.blocks->none)
        return;
    // One op's sections share their kind: dispatch once per op.
    const Section *secs = hg.sections.data();
    switch (colKindOf(hg.gate, fused)) {
      case ColKind::Init0:
        hSections<ColKind::Init0>(secs, hg.numSections, m, v);
        break;
      case ColKind::Init1:
        hSections<ColKind::Init1>(secs, hg.numSections, m, v);
        break;
      case ColKind::NotNor:
        hSections<ColKind::NotNor>(secs, hg.numSections, m, v);
        break;
      case ColKind::FusedNotNor:
        hSections<ColKind::FusedNotNor>(secs, hg.numSections, m, v);
        break;
    }
}

void
Crossbar::writeStripePaged(std::span<const StripeWrite> ws,
                           const ColMask &m, PagedView &v)
{
    if (m.words && m.blocks->none)
        return;
    // A 1 bit sets the plane's selected rows, a 0 bit only clears.
    const uint32_t pw = geo_->partitionWidth();
    PagedView lv = v;  // as in hSections
    const auto run = [&](auto one) {
        constexpr bool kOne = decltype(one)::value;
        for (uint32_t p = 0; p < geo_->wordBits; ++p) {
            for (const StripeWrite &sw : ws) {
                const uint32_t col = p * pw + sw.slot;
                if ((sw.value >> p) & 1)
                    colOp<ColKind::Init1, kOne>(col, col, col, m, lv);
                else
                    colOp<ColKind::Init0, kOne>(col, col, col, m, lv);
            }
        }
    };
    lv.oneBlock() ? run(std::true_type{}) : run(std::false_type{});
    v = lv;
}

// --- horizontal logic ---------------------------------------------------

void
Crossbar::logicH(const HalfGates &hg, std::span<const uint64_t> rowMask)
{
    panicIf(rowMask.size() != wordsPerCol_,
            "logicH: row mask width mismatch");
    if (storage_ == XbarStorage::Paged) {
        const MaskBlocks mb = MaskBlocks::of(rowMask);
        PagedView v = pagedView();
        logicHPaged(hg, false, {rowMask.data(), &mb}, v);
        return;
    }
    for (uint32_t s = 0; s < hg.numSections; ++s) {
        const Section &sec = hg.sections[s];
        if (!sec.active())
            continue;
        uint64_t *out = colWords(static_cast<uint32_t>(sec.outCol));
        switch (hg.gate) {
          case Gate::Init0:
            for (uint32_t w = 0; w < wordsPerCol_; ++w)
                out[w] &= ~rowMask[w];
            break;
          case Gate::Init1:
            for (uint32_t w = 0; w < wordsPerCol_; ++w)
                out[w] |= rowMask[w];
            break;
          case Gate::Not:
          case Gate::Nor: {
            const uint64_t *inA =
                colWords(static_cast<uint32_t>(sec.inCol[0]));
            const uint64_t *inB = sec.numIn == 2
                ? colWords(static_cast<uint32_t>(sec.inCol[1]))
                : inA;
            for (uint32_t w = 0; w < wordsPerCol_; ++w)
                out[w] &= ~((inA[w] | inB[w]) & rowMask[w]);
            break;
          }
        }
    }
}

void
Crossbar::logicHFusedInit1(const HalfGates &hg,
                           std::span<const uint64_t> rowMask)
{
    panicIf(rowMask.size() != wordsPerCol_,
            "logicH: row mask width mismatch");
    if (storage_ == XbarStorage::Paged) {
        const MaskBlocks mb = MaskBlocks::of(rowMask);
        PagedView v = pagedView();
        logicHPaged(hg, true, {rowMask.data(), &mb}, v);
        return;
    }
    for (uint32_t s = 0; s < hg.numSections; ++s) {
        const Section &sec = hg.sections[s];
        if (!sec.active())
            continue;
        uint64_t *out = colWords(static_cast<uint32_t>(sec.outCol));
        const uint64_t *inA =
            colWords(static_cast<uint32_t>(sec.inCol[0]));
        const uint64_t *inB = sec.numIn == 2
            ? colWords(static_cast<uint32_t>(sec.inCol[1]))
            : inA;
        for (uint32_t w = 0; w < wordsPerCol_; ++w)
            out[w] = (out[w] & ~rowMask[w]) |
                     (~(inA[w] | inB[w]) & rowMask[w]);
    }
}

void
Crossbar::logicHFull(const HalfGates &hg)
{
    if (storage_ == XbarStorage::Paged) {
        PagedView v = pagedView();
        logicHPaged(hg, false, kFullMask, v);
        return;
    }
    // All-ones realized mask: INIT is a fill and the gates drop the
    // blend — bit-identical to logicH under that mask.
    for (uint32_t s = 0; s < hg.numSections; ++s) {
        const Section &sec = hg.sections[s];
        if (!sec.active())
            continue;
        uint64_t *out = colWords(static_cast<uint32_t>(sec.outCol));
        switch (hg.gate) {
          case Gate::Init0:
            std::fill(out, out + wordsPerCol_, 0);
            break;
          case Gate::Init1:
            std::fill(out, out + wordsPerCol_, ~0ull);
            break;
          case Gate::Not:
          case Gate::Nor: {
            const uint64_t *inA =
                colWords(static_cast<uint32_t>(sec.inCol[0]));
            const uint64_t *inB = sec.numIn == 2
                ? colWords(static_cast<uint32_t>(sec.inCol[1]))
                : inA;
            for (uint32_t w = 0; w < wordsPerCol_; ++w)
                out[w] &= ~(inA[w] | inB[w]);
            break;
          }
        }
    }
}

void
Crossbar::logicHFusedInit1Full(const HalfGates &hg)
{
    if (storage_ == XbarStorage::Paged) {
        PagedView v = pagedView();
        logicHPaged(hg, true, kFullMask, v);
        return;
    }
    for (uint32_t s = 0; s < hg.numSections; ++s) {
        const Section &sec = hg.sections[s];
        if (!sec.active())
            continue;
        uint64_t *out = colWords(static_cast<uint32_t>(sec.outCol));
        const uint64_t *inA =
            colWords(static_cast<uint32_t>(sec.inCol[0]));
        const uint64_t *inB = sec.numIn == 2
            ? colWords(static_cast<uint32_t>(sec.inCol[1]))
            : inA;
        for (uint32_t w = 0; w < wordsPerCol_; ++w)
            out[w] = ~(inA[w] | inB[w]);
    }
}

// --- vertical logic -----------------------------------------------------

void
Crossbar::logicV(Gate g, uint32_t rowIn, uint32_t rowOut, uint32_t slot)
{
    if (storage_ == XbarStorage::Paged) {
        panicIf(g == Gate::Nor, "logicV: NOR is not supported vertically");
        const VGate vg{g, rowIn / 64, rowIn % 64, rowOut / 64,
                       1ull << (rowOut % 64)};
        PagedView v = pagedView();
        vgatesSlot(slot, &vg, 1, v);
        return;
    }
    // All loop-invariants hoisted: word indices, bit masks and the
    // gate dispatch are identical for every partition.
    const uint32_t pw = geo_->partitionWidth();
    const uint32_t numPart = geo_->partitions;
    const uint32_t outWord = rowOut / 64;
    const uint64_t outBit = 1ull << (rowOut % 64);
    switch (g) {
      case Gate::Init0:
        for (uint32_t p = 0; p < numPart; ++p)
            colWords(p * pw + slot)[outWord] &= ~outBit;
        break;
      case Gate::Init1:
        for (uint32_t p = 0; p < numPart; ++p)
            colWords(p * pw + slot)[outWord] |= outBit;
        break;
      case Gate::Not: {
        const uint32_t inWord = rowIn / 64;
        const uint32_t inShift = rowIn % 64;
        for (uint32_t p = 0; p < numPart; ++p) {
            uint64_t *words = colWords(p * pw + slot);
            if ((words[inWord] >> inShift) & 1)
                words[outWord] &= ~outBit;
        }
        break;
      }
      case Gate::Nor:
        panic("logicV: NOR is not supported vertically");
    }
}

// --- trace replay -------------------------------------------------------

void
Crossbar::replaySegment(const SegmentTrace &trace, uint32_t self,
                        Stats *work)
{
    const bool paged = storage_ == XbarStorage::Paged;
    PagedView v = pagedView();
    const size_t n = trace.ops.size();
    for (size_t i = 0; i < n;) {
        const TraceOp &op = trace.ops[i];
        if (op.type == OpType::LogicV) {
            // Runs of consecutive LogicV ops on the same
            // intra-partition index address the same partition
            // columns; replay the whole run column-major in one pass.
            size_t j = i + 1;
            while (j < n && trace.ops[j].type == OpType::LogicV &&
                   trace.ops[j].index == op.index)
                ++j;
            replayLogicVRun(trace.ops.data() + i, j - i, self, work);
            v = pagedView();
            i = j;
            continue;
        }
        ++i;
        if (!op.xb.contains(self))
            continue;
        const bool full = trace.rowMaskFull[op.rowMask] != 0;
        // Paged kernels take the mask with its block summary from the
        // trace; the dense entry points take the words.
        const ColMask pm =
            full ? kFullMask
                 : ColMask{trace.rowMask(op.rowMask).data(),
                           &trace.rowMaskBlocks[op.rowMask]};
        switch (op.type) {
          case OpType::Write: {
            // A plain Write is a stripe of one; a longer stripe holds
            // adjacent Writes merged by the trace fuser (distinct
            // slots under one shared row mask).
            const StripeWrite one{op.index, op.value};
            const std::span<const StripeWrite> ws =
                op.wn > 1 ? std::span<const StripeWrite>{
                                trace.writePairs.data() + op.wrun, op.wn}
                          : std::span<const StripeWrite>{&one, 1};
            if (paged)
                writeStripePaged(ws, pm, v);
            else if (full)
                writeStripeFull(ws);
            else
                writeStripe(ws, trace.rowMask(op.rowMask));
            // Work conservation: the stripe applies wn architectural
            // Writes.
            if (work)
                work->recordN(OpClass::Write, op.wn);
            break;
          }
          case OpType::LogicH: {
            const HalfGates &hg = *op.hg;
            if (paged)
                logicHPaged(hg, op.fusedInit, pm, v);
            else if (op.fusedInit && full)
                logicHFusedInit1Full(hg);
            else if (op.fusedInit)
                logicHFusedInit1(hg, trace.rowMask(op.rowMask));
            else if (full)
                logicHFull(hg);
            else
                logicH(hg, trace.rowMask(op.rowMask));
            // A fused INIT1+gate applies two architectural ops.
            if (work)
                work->recordN(OpClass::LogicH, op.fusedInit ? 2 : 1);
            break;
          }
          default:
            break;  // unreachable: the builder emits work ops only
        }
    }
}

void
Crossbar::replayLogicVRun(const TraceOp *run, size_t n, uint32_t self,
                          Stats *work)
{
    // A LogicV op addresses two single rows of one column per
    // partition, so op-major replay touches every partition column
    // for two bits per op. Interchanging the loops applies the whole
    // run to one column while its words are hot. The run is
    // processed in fixed-size chunks of decoded gate descriptors so
    // no scratch allocation is needed; chunk order preserves stream
    // order within each column, and columns are independent.
    constexpr size_t kChunk = 64;
    VGate gates[kChunk];
    const uint32_t pw = geo_->partitionWidth();
    const uint32_t numPart = geo_->partitions;
    const uint32_t slot = run[0].index;
    const bool paged = storage_ == XbarStorage::Paged;

    size_t i = 0;
    while (i < n) {
        size_t m = 0;
        for (; i < n && m < kChunk; ++i) {
            const TraceOp &op = run[i];
            if (!op.xb.contains(self))
                continue;
            gates[m].gate = op.gate;
            gates[m].inWord = op.rowIn / 64;
            gates[m].inShift = op.rowIn % 64;
            gates[m].outWord = op.rowOut / 64;
            gates[m].outBit = 1ull << (op.rowOut % 64);
            ++m;
            if (work)
                work->record(OpClass::LogicV);
        }
        if (m == 0)
            continue;
        if (paged) {
            PagedView v = pagedView();
            vgatesSlot(slot, gates, m, v);
            continue;
        }
        for (uint32_t p = 0; p < numPart; ++p)
            vgateWords(colWords(p * pw + slot), gates, m);
    }
}

// --- compiled-program replay --------------------------------------------

namespace
{

/** The paged kernels' mask of compiled instruction @p in: the
 *  all-ones mask when the program or the instruction is full, else
 *  its snapshot's words and block summary. */
ColMask
maskOf(const ReplayProgram &prog, const ReplayProgram::Instr &in,
       bool allFull)
{
    if (allFull || in.maskFull)
        return kFullMask;
    return {prog.maskWords.data() + in.maskOff,
            &prog.maskBlocks[in.maskOff / prog.wordsPerMask]};
}

} // namespace

void
Crossbar::replayProgram(const ReplayProgram &prog, uint32_t self,
                        Stats *work)
{
    // One dispatch per (segment, crossbar) into the specialization
    // lattice — every per-op branch the interpreter pays (op switch,
    // storage test, mask-handle resolution, blend-vs-fill) is decided
    // here, outside the hot loops.
    if (storage_ == XbarStorage::Paged) {
        if (prog.allMasksFull)
            replayProgramT<true, true>(prog, self, work);
        else
            replayProgramT<true, false>(prog, self, work);
    } else {
        if (prog.allMasksFull)
            replayProgramT<false, true>(prog, self, work);
        else
            replayProgramT<false, false>(prog, self, work);
    }
}

template <ColKind K, class PSec>
void
Crossbar::pSections(const PSec *secs, uint32_t n, const ColMask &m,
                    PagedView &v)
{
    // Most passes hold one to three sections, so unlike hSections the
    // view is used in place rather than copied in and out.
    const auto run = [&](auto one) {
        for (uint32_t s = 0; s < n; ++s)
            colOp<K, decltype(one)::value>(secs[s].outCol, secs[s].inA,
                                           secs[s].inB, m, v);
    };
    v.oneBlock() ? run(std::true_type{}) : run(std::false_type{});
}

template <bool kPaged, bool kFull>
void
Crossbar::replayProgramT(const ReplayProgram &prog, uint32_t self,
                         Stats *work)
{
    using SecKind = ReplayProgram::SecKind;
    const bool uni = prog.uniformXb;
    if (uni && !prog.xb.contains(self))
        return;
    if (work && uni) {
        // One crossbar range shared by every instruction: the whole
        // program's applied work charges in three counter bumps.
        if (prog.workWrites)
            work->recordN(OpClass::Write, prog.workWrites);
        if (prog.workLogicH)
            work->recordN(OpClass::LogicH, prog.workLogicH);
        if (prog.workLogicV)
            work->recordN(OpClass::LogicV, prog.workLogicV);
    }
    const uint32_t wpc = wordsPerCol_;
    const uint32_t pw = geo_->partitionWidth();
    // Paged: one view for the whole program, refreshed by the kernels
    // after any call that can grow the table or pool.
    PagedView v = kPaged ? pagedView() : PagedView{};
    for (const ReplayProgram::Instr &in : prog.instrs) {
        if (!uni) {
            if (!in.xb.contains(self))
                continue;
            if (work)
                work->recordN(in.cls, in.work);
        }
        switch (in.kind) {
          case ReplayProgram::Kind::HPass: {
            const ReplayProgram::PSection *secs =
                prog.sections.data() + in.off;
            const uint64_t *m = prog.maskWords.data() + in.maskOff;
            if (kPaged) {
                // Each section resolves its columns once: contiguous
                // runs take the dense word loop over one span, any
                // other column the per-block loop (colOp). The pass
                // is order-free, and a mask that reaches no block
                // leaves every section untouched.
                const ColMask pm = maskOf(prog, in, kFull);
                if (pm.words && pm.blocks->none)
                    break;
                switch (in.passKind) {
                  case static_cast<uint8_t>(SecKind::Init0):
                    pSections<SecKind::Init0>(secs, in.count, pm, v);
                    break;
                  case static_cast<uint8_t>(SecKind::Init1):
                    pSections<SecKind::Init1>(secs, in.count, pm, v);
                    break;
                  case static_cast<uint8_t>(SecKind::NotNor):
                    pSections<SecKind::NotNor>(secs, in.count, pm, v);
                    break;
                  case static_cast<uint8_t>(SecKind::FusedNotNor):
                    pSections<SecKind::FusedNotNor>(secs, in.count, pm, v);
                    break;
                  default: {  // mixed pass: dispatch per section
                    for (uint32_t s = 0; s < in.count; ++s)
                        colOp(secs[s].kind, secs[s].outCol,
                              secs[s].inA, secs[s].inB, pm, v);
                    break;
                  }
                }
                break;
            }
            if (kFull || in.maskFull) {
                if (in.passKind != ReplayProgram::kMixedPass) {
                    // Kind-homogeneous blend-free pass (the common
                    // case: one op's sections share their gate, and
                    // merges chain gates of one kind): the
                    // section-kind switch hoists out of the column
                    // loop, leaving tight per-kind loops — with a
                    // single-word body for shallow (<= 64-row)
                    // columns.
                    const auto pk = static_cast<SecKind>(in.passKind);
                    uint64_t *base = colWords(0);
                    switch (pk) {
                      case SecKind::Init0:
                        for (uint32_t s = 0; s < in.count; ++s) {
                            uint64_t *out =
                                base +
                                static_cast<size_t>(secs[s].outCol) *
                                    wpc;
                            std::fill(out, out + wpc, 0);
                        }
                        break;
                      case SecKind::Init1:
                        for (uint32_t s = 0; s < in.count; ++s) {
                            uint64_t *out =
                                base +
                                static_cast<size_t>(secs[s].outCol) *
                                    wpc;
                            std::fill(out, out + wpc, ~0ull);
                        }
                        break;
                      case SecKind::NotNor:
                        if (wpc == 1) {
                            for (uint32_t s = 0; s < in.count; ++s)
                                base[secs[s].outCol] &=
                                    ~(base[secs[s].inA] |
                                      base[secs[s].inB]);
                            break;
                        }
                        for (uint32_t s = 0; s < in.count; ++s) {
                            const ReplayProgram::PSection &sec =
                                secs[s];
                            uint64_t *out =
                                base +
                                static_cast<size_t>(sec.outCol) * wpc;
                            const uint64_t *a =
                                base +
                                static_cast<size_t>(sec.inA) * wpc;
                            const uint64_t *b =
                                base +
                                static_cast<size_t>(sec.inB) * wpc;
                            for (uint32_t w = 0; w < wpc; ++w)
                                out[w] &= ~(a[w] | b[w]);
                        }
                        break;
                      case SecKind::FusedNotNor:
                        if (wpc == 1) {
                            for (uint32_t s = 0; s < in.count; ++s)
                                base[secs[s].outCol] =
                                    ~(base[secs[s].inA] |
                                      base[secs[s].inB]);
                            break;
                        }
                        for (uint32_t s = 0; s < in.count; ++s) {
                            const ReplayProgram::PSection &sec =
                                secs[s];
                            uint64_t *out =
                                base +
                                static_cast<size_t>(sec.outCol) * wpc;
                            const uint64_t *a =
                                base +
                                static_cast<size_t>(sec.inA) * wpc;
                            const uint64_t *b =
                                base +
                                static_cast<size_t>(sec.inB) * wpc;
                            for (uint32_t w = 0; w < wpc; ++w)
                                out[w] = ~(a[w] | b[w]);
                        }
                        break;
                    }
                    break;
                }
                // Mixed blend-free pass: one section loop, no mask
                // loads.
                for (uint32_t s = 0; s < in.count; ++s) {
                    const ReplayProgram::PSection &sec = secs[s];
                    uint64_t *out = colWords(sec.outCol);
                    switch (sec.kind) {
                      case SecKind::Init0:
                        std::fill(out, out + wpc, 0);
                        break;
                      case SecKind::Init1:
                        std::fill(out, out + wpc, ~0ull);
                        break;
                      case SecKind::NotNor: {
                        const uint64_t *a = colWords(sec.inA);
                        const uint64_t *b = colWords(sec.inB);
                        for (uint32_t w = 0; w < wpc; ++w)
                            out[w] &= ~(a[w] | b[w]);
                        break;
                      }
                      case SecKind::FusedNotNor: {
                        const uint64_t *a = colWords(sec.inA);
                        const uint64_t *b = colWords(sec.inB);
                        for (uint32_t w = 0; w < wpc; ++w)
                            out[w] = ~(a[w] | b[w]);
                        break;
                      }
                    }
                }
                break;
            }
            // Partial mask, dense slab: the blended word loops.
            for (uint32_t s = 0; s < in.count; ++s) {
                const ReplayProgram::PSection &sec = secs[s];
                uint64_t *out = colWords(sec.outCol);
                switch (sec.kind) {
                  case SecKind::Init0:
                    for (uint32_t w = 0; w < wpc; ++w)
                        out[w] &= ~m[w];
                    break;
                  case SecKind::Init1:
                    for (uint32_t w = 0; w < wpc; ++w)
                        out[w] |= m[w];
                    break;
                  case SecKind::NotNor: {
                    const uint64_t *a = colWords(sec.inA);
                    const uint64_t *b = colWords(sec.inB);
                    for (uint32_t w = 0; w < wpc; ++w)
                        out[w] &= ~((a[w] | b[w]) & m[w]);
                    break;
                  }
                  case SecKind::FusedNotNor: {
                    const uint64_t *a = colWords(sec.inA);
                    const uint64_t *b = colWords(sec.inB);
                    for (uint32_t w = 0; w < wpc; ++w)
                        out[w] = (out[w] & ~m[w]) |
                                 (~(a[w] | b[w]) & m[w]);
                    break;
                  }
                }
            }
            break;
          }
          case ReplayProgram::Kind::WStripe: {
            const std::span<const StripeWrite> ws{
                prog.pairs.data() + in.off, in.count};
            if (kPaged)
                writeStripePaged(ws, maskOf(prog, in, kFull), v);
            else if (kFull || in.maskFull)
                writeStripeFull(ws);
            else
                writeStripe(ws,
                            {prog.maskWords.data() + in.maskOff,
                             wpc});
            break;
          }
          case ReplayProgram::Kind::VRun: {
            // Pre-decoded run, column-major (replayLogicVRun without
            // the per-crossbar chunked re-decode and per-op mask
            // checks — the compiler made the run's range uniform).
            const ReplayProgram::VGate *gs =
                prog.vgates.data() + in.off;
            if (kPaged) {
                vgatesSlot(in.slot, gs, in.count, v);
                break;
            }
            for (uint32_t part = 0; part < geo_->partitions; ++part)
                vgateWords(colWords(part * pw + in.slot), gs, in.count);
            break;
          }
        }
    }
}

// --- strided read/write -------------------------------------------------

void
Crossbar::write(uint32_t slot, uint32_t value,
                std::span<const uint64_t> rowMask)
{
    panicIf(rowMask.size() != wordsPerCol_,
            "write: row mask width mismatch");
    if (storage_ == XbarStorage::Paged) {
        const StripeWrite one{slot, value};
        const MaskBlocks mb = MaskBlocks::of(rowMask);
        PagedView v = pagedView();
        writeStripePaged({&one, 1}, {rowMask.data(), &mb}, v);
        return;
    }
    const uint32_t pw = geo_->partitionWidth();
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        uint64_t *words = colWords(p * pw + slot);
        if ((value >> p) & 1) {
            for (uint32_t w = 0; w < wordsPerCol_; ++w)
                words[w] |= rowMask[w];
        } else {
            for (uint32_t w = 0; w < wordsPerCol_; ++w)
                words[w] &= ~rowMask[w];
        }
    }
}

void
Crossbar::writeStripe(std::span<const StripeWrite> ws,
                      std::span<const uint64_t> rowMask)
{
    panicIf(rowMask.size() != wordsPerCol_,
            "writeStripe: row mask width mismatch");
    if (storage_ == XbarStorage::Paged) {
        const MaskBlocks mb = MaskBlocks::of(rowMask);
        PagedView v = pagedView();
        writeStripePaged(ws, {rowMask.data(), &mb}, v);
        return;
    }
    // Partition-major: every stripe column of partition p is written
    // while the mask words are hot. The slots are pairwise distinct
    // (fuser invariant), so the column sets are disjoint and this
    // order is bit-identical to sequential application.
    const uint32_t pw = geo_->partitionWidth();
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        for (const StripeWrite &sw : ws) {
            uint64_t *words = colWords(p * pw + sw.slot);
            if ((sw.value >> p) & 1) {
                for (uint32_t w = 0; w < wordsPerCol_; ++w)
                    words[w] |= rowMask[w];
            } else {
                for (uint32_t w = 0; w < wordsPerCol_; ++w)
                    words[w] &= ~rowMask[w];
            }
        }
    }
}

void
Crossbar::writeFull(uint32_t slot, uint32_t value)
{
    if (storage_ == XbarStorage::Paged) {
        const StripeWrite one{slot, value};
        PagedView v = pagedView();
        writeStripePaged({&one, 1}, kFullMask, v);
        return;
    }
    // All-ones mask: every plane column becomes a pure fill.
    const uint32_t pw = geo_->partitionWidth();
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        uint64_t *words = colWords(p * pw + slot);
        std::fill(words, words + wordsPerCol_,
                  (value >> p) & 1 ? ~0ull : 0);
    }
}

void
Crossbar::writeStripeFull(std::span<const StripeWrite> ws)
{
    if (storage_ == XbarStorage::Paged) {
        PagedView v = pagedView();
        writeStripePaged(ws, kFullMask, v);
        return;
    }
    const uint32_t pw = geo_->partitionWidth();
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        for (const StripeWrite &sw : ws) {
            uint64_t *words = colWords(p * pw + sw.slot);
            std::fill(words, words + wordsPerCol_,
                      (sw.value >> p) & 1 ? ~0ull : 0);
        }
    }
}

uint32_t
Crossbar::read(uint32_t slot, uint32_t row) const
{
    const uint32_t pw = geo_->partitionWidth();
    const uint32_t off = row % 64;
    uint32_t value = 0;
    if (storage_ == XbarStorage::Paged) {
        if (table_.empty())
            return 0;  // never densified: architectural zeros
        const uint32_t wIdx = row / 64;
        const uint32_t b = wIdx / kBlockWords;
        const uint32_t rel = wIdx % kBlockWords;
        // The planes' table entries are a constant stride apart —
        // index directly instead of re-deriving the block pointer
        // through blockRO per bit.
        const size_t base =
            static_cast<size_t>(slot) * blocksPerCol_ + b;
        const size_t stride =
            static_cast<size_t>(pw) * blocksPerCol_;
        const BlockPool &pool = *pool_;
        for (uint32_t p = 0; p < geo_->wordBits; ++p) {
            const uint32_t id = table_[base + p * stride];
            if (id != kAbsent)
                value |= static_cast<uint32_t>(
                             (pool.words(id)[rel] >> off) & 1)
                         << p;
        }
        return value;
    }
    // Same hoist for the dense slab: one base pointer + plane stride.
    const uint64_t *word =
        state_.data() + static_cast<size_t>(slot) * wordsPerCol_ +
        row / 64;
    const size_t stride = static_cast<size_t>(pw) * wordsPerCol_;
    for (uint32_t p = 0; p < geo_->wordBits; ++p)
        value |= static_cast<uint32_t>((word[p * stride] >> off) & 1)
                 << p;
    return value;
}

void
Crossbar::writeRow(uint32_t slot, uint32_t value, uint32_t row)
{
    const uint32_t pw = geo_->partitionWidth();
    const uint64_t bit = 1ull << (row % 64);
    if (storage_ == XbarStorage::Paged) {
        if (value == 0 && table_.empty())
            return;  // clearing architectural zeros: no-op
        const uint32_t wIdx = row / 64;
        const uint32_t b = wIdx / kBlockWords;
        const uint32_t rel = wIdx % kBlockWords;
        for (uint32_t p = 0; p < geo_->wordBits; ++p) {
            const uint32_t col = p * pw + slot;
            if ((value >> p) & 1) {
                blockRW(col, b)[rel] |= bit;
            } else {
                uint64_t *blk = blockIfPresent(col, b);
                if (blk)
                    blk[rel] &= ~bit;
            }
        }
        return;
    }
    uint64_t *word =
        state_.data() + static_cast<size_t>(slot) * wordsPerCol_ +
        row / 64;
    const size_t stride = static_cast<size_t>(pw) * wordsPerCol_;
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        if ((value >> p) & 1)
            word[p * stride] |= bit;
        else
            word[p * stride] &= ~bit;
    }
}

// --- bulk gather/scatter ------------------------------------------------

uint64_t
Crossbar::gatherRows(uint32_t slot, uint32_t row, uint32_t count,
                     uint32_t *out) const
{
    panicIf(static_cast<uint64_t>(row) + count > geo_->rows,
            "gatherRows: row window exceeds crossbar height");
    if (count == 0)
        return 0;
    if (storage_ == XbarStorage::Paged)
        return gatherRowsPaged(slot, row, count, out);

    const uint32_t pw = geo_->partitionWidth();
    const uint64_t *col0 =
        state_.data() + static_cast<size_t>(slot) * wordsPerCol_;
    const size_t stride = static_cast<size_t>(pw) * wordsPerCol_;
    uint64_t transposed = 0;
    uint32_t done = 0;
    while (done < count) {
        const uint32_t r = row + done;
        const uint32_t wIdx = r / 64;
        const uint32_t off = r % 64;
        const uint32_t take = std::min<uint32_t>(64 - off, count - done);
        uint64_t m[64];
        uint32_t p = 0;
        for (; p < geo_->wordBits; ++p)
            m[p] = col0[p * stride + wIdx];
        for (; p < 64; ++p)
            m[p] = 0;
        transpose64(m);
        transposed += 64;
        for (uint32_t k = 0; k < take; ++k)
            out[done + k] = static_cast<uint32_t>(m[off + k]);
        done += take;
    }
    return transposed;
}

uint64_t
Crossbar::gatherRowsPaged(uint32_t slot, uint32_t row, uint32_t count,
                          uint32_t *out) const
{
    if (table_.empty()) {
        std::fill(out, out + count, 0u);
        return 0;
    }
    const uint32_t pw = geo_->partitionWidth();
    const size_t stride = static_cast<size_t>(pw) * blocksPerCol_;
    const BlockPool &pool = *pool_;
    uint64_t transposed = 0;
    uint32_t done = 0;
    while (done < count) {
        const uint32_t r = row + done;
        const uint32_t wIdx = r / 64;
        const uint32_t off = r % 64;
        const uint32_t take = std::min<uint32_t>(64 - off, count - done);
        const uint32_t b = wIdx / kBlockWords;
        const uint32_t rel = wIdx % kBlockWords;
        const size_t base =
            static_cast<size_t>(slot) * blocksPerCol_ + b;
        uint64_t m[64];
        uint64_t any = 0;
        uint32_t p = 0;
        for (; p < geo_->wordBits; ++p) {
            const uint32_t id = table_[base + p * stride];
            m[p] = id == kAbsent ? 0 : pool.words(id)[rel];
            any |= m[p];
        }
        for (; p < 64; ++p)
            m[p] = 0;
        if (!any) {
            // Absent (or decayed-to-zero) source window: the values
            // are architectural zeros — no transpose needed.
            std::fill(out + done, out + done + take, 0u);
            done += take;
            continue;
        }
        transpose64(m);
        transposed += 64;
        for (uint32_t k = 0; k < take; ++k)
            out[done + k] = static_cast<uint32_t>(m[off + k]);
        done += take;
    }
    return transposed;
}

uint64_t
Crossbar::scatterRows(uint32_t slot, uint32_t row, uint32_t count,
                      const uint32_t *values)
{
    panicIf(static_cast<uint64_t>(row) + count > geo_->rows,
            "scatterRows: row window exceeds crossbar height");
    if (count == 0)
        return 0;
    if (storage_ == XbarStorage::Paged)
        return scatterRowsPaged(slot, row, count, values);

    const uint32_t pw = geo_->partitionWidth();
    uint64_t *col0 =
        state_.data() + static_cast<size_t>(slot) * wordsPerCol_;
    const size_t stride = static_cast<size_t>(pw) * wordsPerCol_;
    uint64_t transposed = 0;
    uint32_t done = 0;
    while (done < count) {
        const uint32_t r = row + done;
        const uint32_t wIdx = r / 64;
        const uint32_t off = r % 64;
        const uint32_t take = std::min<uint32_t>(64 - off, count - done);
        const uint64_t wmask = windowMask(off, take);
        uint64_t m[64] = {};
        uint64_t any = 0;
        for (uint32_t k = 0; k < take; ++k) {
            m[off + k] = values[done + k];
            any |= m[off + k];
        }
        if (!any) {
            // All-zero input window: pure clear, no transpose.
            for (uint32_t p = 0; p < geo_->wordBits; ++p)
                col0[p * stride + wIdx] &= ~wmask;
            done += take;
            continue;
        }
        transpose64(m);
        transposed += 64;
        for (uint32_t p = 0; p < geo_->wordBits; ++p) {
            uint64_t &w = col0[p * stride + wIdx];
            w = (w & ~wmask) | m[p];
        }
        done += take;
    }
    return transposed;
}

uint64_t
Crossbar::scatterRowsPaged(uint32_t slot, uint32_t row, uint32_t count,
                           const uint32_t *values)
{
    const uint32_t pw = geo_->partitionWidth();
    // Per-block pre-scan: a plane that receives a set bit in EVERY
    // block of its column materialises every block below anyway, so
    // an all-absent column of such a plane densifies as one run.
    constexpr uint32_t kBlockRows = kBlockWords * 64;
    uint32_t planes = geo_->wordBits >= 32
        ? ~0u
        : (1u << geo_->wordBits) - 1;
    for (uint32_t b = 0; b < blocksPerCol_ && planes; ++b) {
        const uint32_t lo = std::max(row, b * kBlockRows);
        const uint32_t hi = std::min(row + count, (b + 1) * kBlockRows);
        uint32_t acc = 0;
        for (uint32_t r = lo; r < hi && (acc & planes) != planes; ++r)
            acc |= values[r - row];
        planes &= acc;
    }
    for (; planes; planes &= planes - 1)
        runMaterialise(
            static_cast<uint32_t>(std::countr_zero(planes)) * pw + slot);
    uint64_t transposed = 0;
    uint32_t done = 0;
    while (done < count) {
        const uint32_t r = row + done;
        const uint32_t wIdx = r / 64;
        const uint32_t off = r % 64;
        const uint32_t take = std::min<uint32_t>(64 - off, count - done);
        const uint64_t wmask = windowMask(off, take);
        const uint32_t b = wIdx / kBlockWords;
        const uint32_t rel = wIdx % kBlockWords;
        uint64_t m[64] = {};
        uint64_t any = 0;
        for (uint32_t k = 0; k < take; ++k) {
            m[off + k] = values[done + k];
            any |= m[off + k];
        }
        if (!any) {
            // All-zero input window clears present blocks only —
            // absent blocks stay absent (elision preserved).
            for (uint32_t p = 0; p < geo_->wordBits; ++p) {
                uint64_t *blk = blockIfPresent(p * pw + slot, b);
                if (blk)
                    blk[rel] &= ~wmask;
            }
            done += take;
            continue;
        }
        transpose64(m);
        transposed += 64;
        for (uint32_t p = 0; p < geo_->wordBits; ++p) {
            const uint32_t col = p * pw + slot;
            if (m[p]) {
                // blockRW may relocate the pool — no caching across
                // planes.
                uint64_t *blk = blockRW(col, b);
                blk[rel] = (blk[rel] & ~wmask) | m[p];
            } else {
                uint64_t *blk = blockIfPresent(col, b);
                if (blk)
                    blk[rel] &= ~wmask;
            }
        }
        done += take;
    }
    return transposed;
}

bool
Crossbar::bit(uint32_t row, uint32_t col) const
{
    if (storage_ == XbarStorage::Paged) {
        const uint32_t wIdx = row / 64;
        const uint64_t *blk = blockRO(col, wIdx / kBlockWords);
        return blk &&
               ((blk[wIdx % kBlockWords] >> (row % 64)) & 1);
    }
    return (colWords(col)[row / 64] >> (row % 64)) & 1;
}

void
Crossbar::setBit(uint32_t row, uint32_t col, bool v)
{
    const uint64_t bit = 1ull << (row % 64);
    if (storage_ == XbarStorage::Paged) {
        const uint32_t wIdx = row / 64;
        const uint32_t b = wIdx / kBlockWords;
        const uint32_t rel = wIdx % kBlockWords;
        if (v) {
            blockRW(col, b)[rel] |= bit;
        } else {
            uint64_t *blk = blockIfPresent(col, b);
            if (blk)
                blk[rel] &= ~bit;
        }
        return;
    }
    uint64_t *words = colWords(col);
    if (v)
        words[row / 64] |= bit;
    else
        words[row / 64] &= ~bit;
}

// --- snapshots, compaction, comparison ----------------------------------

Crossbar::Snapshot::Snapshot(const Snapshot &o)
    : geo_(o.geo_),
      wordsPerCol_(o.wordsPerCol_),
      blocksPerCol_(o.blocksPerCol_),
      pool_(o.pool_),
      table_(o.table_),
      dense_(o.dense_)
{
    if (pool_)
        for (const uint32_t id : table_)
            if (id != kAbsent)
                pool_->ref(id);
}

Crossbar::Snapshot &
Crossbar::Snapshot::operator=(const Snapshot &o)
{
    if (this != &o) {
        Snapshot tmp(o);
        *this = std::move(tmp);
    }
    return *this;
}

Crossbar::Snapshot::Snapshot(Snapshot &&o) noexcept
    : geo_(o.geo_),
      wordsPerCol_(o.wordsPerCol_),
      blocksPerCol_(o.blocksPerCol_),
      pool_(std::move(o.pool_)),
      table_(std::move(o.table_)),
      dense_(std::move(o.dense_))
{
    o.table_.clear();  // the destructor must not double-unref
    o.dense_.clear();
}

Crossbar::Snapshot &
Crossbar::Snapshot::operator=(Snapshot &&o) noexcept
{
    if (this != &o) {
        release();
        geo_ = o.geo_;
        wordsPerCol_ = o.wordsPerCol_;
        blocksPerCol_ = o.blocksPerCol_;
        pool_ = std::move(o.pool_);
        table_ = std::move(o.table_);
        dense_ = std::move(o.dense_);
        o.table_.clear();
        o.dense_.clear();
    }
    return *this;
}

Crossbar::Snapshot::~Snapshot() { release(); }

void
Crossbar::Snapshot::release()
{
    if (pool_)
        for (const uint32_t id : table_)
            if (id != kAbsent)
                pool_->unref(id);
    pool_.reset();
    table_.clear();
    dense_.clear();
}

const uint64_t *
Crossbar::Snapshot::blockRO(uint32_t col, uint32_t b) const
{
    if (!dense_.empty())
        return dense_.data() +
               static_cast<size_t>(col) * wordsPerCol_ +
               static_cast<size_t>(b) * kBlockWords;
    if (table_.empty())
        return nullptr;
    const uint32_t id =
        table_[static_cast<size_t>(col) * blocksPerCol_ + b];
    return id == kAbsent ? nullptr : pool_->words(id);
}

uint32_t
Crossbar::Snapshot::read(uint32_t slot, uint32_t row) const
{
    const uint32_t pw = geo_->partitionWidth();
    const uint32_t wIdx = row / 64;
    const uint32_t b = wIdx / kBlockWords;
    const uint32_t rel = wIdx % kBlockWords;
    uint32_t value = 0;
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        const uint64_t *blk = blockRO(p * pw + slot, b);
        const uint32_t v =
            blk ? static_cast<uint32_t>((blk[rel] >> (row % 64)) & 1)
                : 0;
        value |= v << p;
    }
    return value;
}

bool
Crossbar::Snapshot::bit(uint32_t row, uint32_t col) const
{
    const uint32_t wIdx = row / 64;
    const uint64_t *blk = blockRO(col, wIdx / kBlockWords);
    return blk && ((blk[wIdx % kBlockWords] >> (row % 64)) & 1);
}

Crossbar::Snapshot
Crossbar::snapshot() const
{
    panicIf(busy_ && busy_->load(std::memory_order_acquire),
            "snapshot: pipeline replay in flight (snapshots are only "
            "valid at drain points)");
    Snapshot s;
    s.geo_ = geo_;
    s.wordsPerCol_ = wordsPerCol_;
    s.blocksPerCol_ = blocksPerCol_;
    if (storage_ == XbarStorage::Dense) {
        s.dense_ = state_;
        return s;
    }
    // O(live data): share every present block, bumping its refcount.
    // Subsequent mutation of the source clones exactly the blocks it
    // touches (blockRW/blockIfPresent check refCount > 1).
    s.pool_ = pool_;
    s.table_ = table_;
    if (pool_)
        for (const uint32_t id : s.table_)
            if (id != kAbsent)
                pool_->ref(id);
    return s;
}

void
Crossbar::restore(const Snapshot &s)
{
    panicIf(busy_ && busy_->load(std::memory_order_acquire),
            "restore: pipeline replay in flight (restores are only "
            "valid at drain points)");
    panicIf(s.wordsPerCol_ != wordsPerCol_ ||
                (s.geo_ && s.geo_->cols != geo_->cols),
            "restore: snapshot from a different geometry");
    if (storage_ == XbarStorage::Dense) {
        panicIf(s.dense_.empty() && !s.table_.empty(),
                "restore: paged snapshot into a dense crossbar");
        if (s.dense_.empty())
            std::fill(state_.begin(), state_.end(), 0);
        else
            state_ = s.dense_;
        return;
    }
    panicIf(!s.dense_.empty(),
            "restore: dense snapshot into a paged crossbar");
    panicIf(s.pool_ && pool_ && s.pool_ != pool_,
            "restore: snapshot was taken from a different crossbar");
    // Re-adopt the snapshot's shared blocks: ref the incoming set
    // first so self-restore never transiently frees a block.
    if (s.pool_)
        for (const uint32_t id : s.table_)
            if (id != kAbsent)
                s.pool_->ref(id);
    if (pool_)
        for (const uint32_t id : table_)
            if (id != kAbsent)
                pool_->unref(id);
    table_ = s.table_;
    // The snapshot's runs may be shared by other images: only fresh
    // allocation establishes a run (see the file header).
    runs_.assign(table_.empty() ? 0 : (geo_->cols + 63) / 64, 0);
    if (!pool_)
        pool_ = s.pool_;
}

uint64_t
Crossbar::compact()
{
    if (storage_ == XbarStorage::Dense || table_.empty())
        return 0;
    uint64_t elided = 0;
    for (uint32_t col = 0; col < geo_->cols; ++col) {
        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
            uint32_t &id = table_[tableIndex(col, b)];
            if (id == kAbsent)
                continue;
            if (allZero(pool_->words(id), blockWords(b))) {
                pool_->unref(id);
                id = kAbsent;
                clearRun(col);
                ++elided;
            }
        }
    }
    return elided;
}

void
Crossbar::forEachNonZeroBlock(
    const std::function<void(uint32_t col, uint32_t b,
                             const uint64_t *w, uint32_t n)> &fn) const
{
    for (uint32_t col = 0; col < geo_->cols; ++col) {
        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
            const uint64_t *w = storage_ == XbarStorage::Dense
                ? colWords(col) + b * kBlockWords
                : blockRO(col, b);
            if (!w)
                continue;
            const uint32_t used = blockWords(b);
            if (allZero(w, used))
                continue;
            fn(col, b, w, used);
        }
    }
}

void
Crossbar::Snapshot::forEachNonZeroBlock(
    const std::function<void(uint32_t col, uint32_t b,
                             const uint64_t *w, uint32_t n)> &fn) const
{
    for (uint32_t col = 0; col < (geo_ ? geo_->cols : 0); ++col) {
        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
            const uint64_t *w = blockRO(col, b);
            if (!w)
                continue;
            const uint32_t base = b * kBlockWords;
            const uint32_t used = wordsPerCol_ - base < kBlockWords
                ? wordsPerCol_ - base
                : kBlockWords;
            if (allZero(w, used))
                continue;
            fn(col, b, w, used);
        }
    }
}

uint64_t
Crossbar::stateChecksum() const
{
    // FNV-1a over (col, block, words): position-sensitive so a block
    // moving columns changes the digest, and canonical-walk-based so
    // dense and paged in equal state digest equal.
    uint64_t h = 0xCBF29CE484222325ull;
    const auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ull;
        }
    };
    forEachNonZeroBlock(
        [&](uint32_t col, uint32_t b, const uint64_t *w, uint32_t n) {
            mix((static_cast<uint64_t>(col) << 32) | b);
            for (uint32_t i = 0; i < n; ++i)
                mix(w[i]);
        });
    return h;
}

void
Crossbar::resetState()
{
    if (storage_ == XbarStorage::Dense) {
        std::fill(state_.begin(), state_.end(), 0);
        return;
    }
    for (uint32_t &id : table_) {
        if (id != kAbsent) {
            pool_->unref(id);
            id = kAbsent;
        }
    }
    std::fill(runs_.begin(), runs_.end(), 0);
}

void
Crossbar::loadBlock(uint32_t col, uint32_t b, const uint64_t *w,
                    uint32_t n)
{
    panicIf(col >= geo_->cols || b >= blocksPerCol_ ||
                n > blockWords(b),
            "loadBlock: record outside this crossbar's geometry");
    if (allZero(w, n))
        return;  // canonical images never carry these anyway
    if (storage_ == XbarStorage::Dense) {
        uint64_t *dst = colWords(col) + b * kBlockWords;
        std::copy(w, w + n, dst);
        return;
    }
    uint64_t *dst = blockRW(col, b);
    std::copy(w, w + n, dst);
    // A short tail record leaves the block's trailing words whatever
    // blockRW materialised; alloc() zeroes fresh blocks, and restore
    // resets state first, so the tail is zero either way.
}

StorageGauges
Crossbar::storageGauges() const
{
    StorageGauges g;
    const uint64_t total =
        static_cast<uint64_t>(geo_->cols) * blocksPerCol_;
    g.blocksTotal = total;
    if (storage_ == XbarStorage::Dense) {
        // The flat slab materialises everything.
        g.blocksPresent = total;
        g.residentBytes = state_.capacity() * sizeof(uint64_t);
        return g;
    }
    for (const uint32_t id : table_) {
        if (id == kAbsent)
            continue;
        ++g.blocksPresent;
        if (pool_->refCount(id) > 1)
            ++g.cowShared;
    }
    if (!table_.empty())
        for (uint32_t col = 0; col < geo_->cols; ++col)
            g.runColumns += isRun(col);
    g.blocksElided = total - g.blocksPresent;
    g.residentBytes = table_.capacity() * sizeof(uint32_t) +
                      (pool_ ? pool_->residentBytes() : 0);
    return g;
}

bool
Crossbar::sameState(const Crossbar &other) const
{
    if (storage_ == XbarStorage::Dense &&
        other.storage_ == XbarStorage::Dense)
        return state_ == other.state_;
    // Canonical per-block walk: an absent block equals an all-zero
    // materialised one, so dense-vs-paged comparison is direct and
    // paged-vs-paged touches only present blocks.
    for (uint32_t col = 0; col < geo_->cols; ++col) {
        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
            const uint64_t *a = storage_ == XbarStorage::Dense
                ? colWords(col) + b * kBlockWords
                : blockRO(col, b);
            const uint64_t *bw =
                other.storage_ == XbarStorage::Dense
                    ? other.colWords(col) + b * kBlockWords
                    : other.blockRO(col, b);
            if (a == bw)
                continue;  // shared block (or both absent)
            const uint32_t used = blockWords(b);
            if (!a) {
                if (!allZero(bw, used))
                    return false;
            } else if (!bw) {
                if (!allZero(a, used))
                    return false;
            } else if (!std::equal(a, a + used, bw)) {
                return false;
            }
        }
    }
    return true;
}

bool
Crossbar::sameState(const Snapshot &s) const
{
    for (uint32_t col = 0; col < geo_->cols; ++col) {
        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
            const uint64_t *a = storage_ == XbarStorage::Dense
                ? colWords(col) + b * kBlockWords
                : blockRO(col, b);
            const uint64_t *bw = s.blockRO(col, b);
            if (a == bw)
                continue;
            const uint32_t used = blockWords(b);
            if (!a) {
                if (!allZero(bw, used))
                    return false;
            } else if (!bw) {
                if (!allZero(a, used))
                    return false;
            } else if (!std::equal(a, a + used, bw)) {
                return false;
            }
        }
    }
    return true;
}

} // namespace pypim
