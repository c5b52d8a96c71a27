/**
 * @file
 * Bit-level state of one memristive crossbar array.
 *
 * Storage is column-major: each bitline (column) is kept as
 * ceil(rows/64) 64-bit words, so one horizontal stateful-logic gate
 * over all rows costs O(rows/64) word operations — the CPU analogue of
 * the paper's condensed-format GPU optimisation (§VI "Memory"/"Logic").
 *
 * Two representations exist behind one interface (XbarStorage):
 *
 *  - DENSE: one flat cols x wordsPerCol slab, the historical layout
 *    and the parity oracle. RSS scales with geometry.
 *  - PAGED: each column is a run of kBlockWords-word BLOCKS behind a
 *    per-column block table. An all-zero block is represented by the
 *    sentinel entry kAbsent and costs zero bytes; it densifies
 *    transparently on the first write that could set a bit in it, and
 *    an explicit compact() sweep re-elides blocks that have decayed
 *    back to all-zero. The table itself is allocated lazily on the
 *    first densification, so a never-written crossbar costs O(1)
 *    bytes — RSS scales with LIVE data, not with geometry
 *    (BitMagic-style zero elision; ROADMAP capacity item).
 *
 * Zero-elision gives the replay loops a fast path for free: reading
 * an absent block yields zeros, so NOR/NOT with all-absent inputs
 * reduces to algebra on the output block (out &= ~mask needs no input
 * materialisation, and skips entirely when the output is absent too,
 * since stateful logic can only clear bits). Writes densify a block
 * only when the row mask actually selects a row inside it.
 *
 * Contiguous column runs: an op that materialises EVERY block of an
 * all-absent column (INIT1 and fused INIT1+NOR outputs and writes
 * setting a plane, under a row mask that reaches every block, and
 * bulk scatters whose per-block pre-scan shows every block of a plane
 * receiving a set bit) allocates that column's blocks as one run of
 * consecutive pool ids and sets the column's run bit (one bit per
 * column, next to the table; the run base is the table entry of
 * block 0). A present column of a single block is a run by
 * definition. One set of paged column kernels (fill/INIT and write
 * planes, stateful NOR/NOT, fused INIT1+NOR, each with an optional
 * row mask; and the LogicV gate list of one partition column) serves
 * every op kind, masked or full-mask, interpreted or compiled: each
 * resolves its output column once, then its inputs, and runs the
 * dense word loop over one wordsPerCol-word span when all of them are
 * spans; otherwise it takes the one per-block loop. Masks come with a
 * per-block summary (MaskBlocks), precomputed once per row-mask
 * snapshot at trace build, so no kernel rescans mask words to decide
 * presence. On the fig12_dense benchmark workload (4-vCPU 2.1 GHz
 * Xeon VM) runs took compiled replay from 65 to 34 ns per crossbar
 * micro-op and instr/s from 188 to 339 (medians of 10 pairs); the
 * masked kernels' numbers are in ROADMAP item 2.
 *
 * Column resolution is kept cheap: a PagedView holds the table, run
 * bits, refcounts and pool base pointers for a whole op, segment or
 * program and is refreshed only after a call that can allocate or
 * clone; the refcount lookup is skipped while no pool block is shared
 * with a snapshot; and when every column is one block (rows <= 512)
 * the kernels take single-block resolvers with no run-bit or
 * null-table test. A pool block holds kBlockWords words, or the
 * whole column when it is shorter, so shallow crossbars keep dense
 * storage's footprint.
 *
 * Presence rules — the span path changes presence and copy-on-write
 * exactly as the per-block loop would:
 *  - an output column materialises as a run only when the row mask
 *    reaches every block (MaskBlocks::every): the set of blocks the
 *    per-block loop would densify; a mask missing a block leaves an
 *    absent column to the per-block loop;
 *  - clearing kinds (INIT0, NOR/NOT, a 0 plane of a write) never
 *    materialise: an absent output stays absent;
 *  - a run output is only written in place while unshared: a
 *    snapshot copies the whole table, so it shares a run whole and
 *    the refcount of block 0 speaks for every block; a shared run
 *    takes the per-block clone path;
 *  - inputs resolve after the output, because materialising may grow
 *    (and move) the pool.
 * On an unshared run every block is present, so the span loop changes
 * no presence: where the mask is zero the words are left as they are.
 * The bit is cleared wherever the column's table entries change: a
 * COW clone in blockRW/blockIfPresent (which loadBlock goes through),
 * compact() eliding one of its blocks, restore() and resetState().
 * Runs are allocated, never relocated: a run reuses the free list
 * only when its top ids are consecutive (a run freed whole) and
 * otherwise appends only while the free list is empty, so pool growth
 * never exceeds what per-block allocation would cost.
 *
 * On top of the block table, snapshot() returns a refcounted
 * copy-on-write image sharing every present block with the live
 * crossbar: O(live data) checkpoint, O(shared blocks) compare, with
 * mutation after the snapshot cloning only the blocks it touches.
 * Refcounts are NOT atomic: snapshots must be created, restored and
 * destroyed only while no replay is mutating the source crossbar
 * (the Simulator's drain points provide exactly this), and a
 * crossbar's blocks are only ever mutated by one thread at a time
 * (the sharded engine partitions work by crossbar), so block cloning
 * during concurrent replay of DIFFERENT crossbars is race-free.
 *
 * Stateful-logic fidelity: NOT/NOR can only switch the output memristor
 * from 1 towards 0 (paper §II-A — the output is expected to be
 * initialised to logical one first). We model exactly that:
 * out_new = out_old AND NOT(OR of inputs). A driver that forgets the
 * INIT therefore computes device-accurate garbage, which the test
 * suite detects.
 */
#ifndef PYPIM_SIM_CROSSBAR_HPP
#define PYPIM_SIM_CROSSBAR_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "uarch/microop.hpp"
#include "uarch/partition.hpp"

namespace pypim
{

struct ReplayProgram;
struct SegmentTrace;
struct Stats;
struct TraceOp;
class BlockPool;

/** One strided write of a stripe: slot @p slot takes @p value. */
struct StripeWrite
{
    uint32_t slot = 0;
    uint32_t value = 0;
};

/**
 * Which kBlockWords-word paged blocks of a column a realized row mask
 * reaches: bit b is set iff some mask word of block b is nonzero. The
 * paged kernels densify an output block only where the mask reaches,
 * and lay an absent column out as one run only when it reaches every
 * block. Precomputed once per row-mask snapshot at trace build
 * (SegmentTrace::rowMaskBlocks, ReplayProgram::maskBlocks).
 */
struct MaskBlocks
{
    /** One bit per block: rows <= 65536 gives <= 128 blocks. */
    uint64_t bits[2] = {};
    bool every = false;  //!< reaches every block of the column
    bool none = true;    //!< reaches no block

    /** Summary of one column's worth of realized mask words. */
    static MaskBlocks of(std::span<const uint64_t> words);

    bool
    reaches(uint32_t b) const
    {
        return (bits[b >> 6] >> (b & 63)) & 1;
    }
};

/** A realized row mask as the paged column kernels take it. */
struct ColMask
{
    const uint64_t *words = nullptr;     //!< null: the all-ones mask
    const MaskBlocks *blocks = nullptr;  //!< blocks @ref words reaches
};

/** What one column kernel computes on its output column. */
enum class ColKind : uint8_t
{
    Init0,      //!< out &= ~mask (full: out = 0)
    Init1,      //!< out |= mask (full: out = ~0)
    NotNor,     //!< out &= ~((a|b) & mask)
    FusedNotNor //!< out = (out & ~mask) | (~(a|b) & mask)
};

/** One decoded LogicV gate, in the word/bit form replay applies. */
struct VGate
{
    Gate gate = Gate::Init0;
    uint32_t inWord = 0, inShift = 0;
    uint32_t outWord = 0;
    uint64_t outBit = 0;
};

/** Point-in-time storage footprint of a crossbar (or a sum of them).
 *  Pure observability — never part of the architectural Stats, whose
 *  exact equality the parity suites assert across storage modes. */
struct StorageGauges
{
    uint64_t blocksTotal = 0;    //!< cols * blocksPerCol (paged; 0 dense)
    uint64_t blocksPresent = 0;  //!< materialised (non-elided) blocks
    uint64_t blocksElided = 0;   //!< absent blocks costing zero bytes
    uint64_t cowShared = 0;      //!< present blocks shared with snapshots
    uint64_t runColumns = 0;     //!< present columns laid out as runs
    uint64_t residentBytes = 0;  //!< bytes actually allocated for state

    StorageGauges &
    operator+=(const StorageGauges &o)
    {
        blocksTotal += o.blocksTotal;
        blocksPresent += o.blocksPresent;
        blocksElided += o.blocksElided;
        cowShared += o.cowShared;
        runColumns += o.runColumns;
        residentBytes += o.residentBytes;
        return *this;
    }
};

/** One h x w crossbar array with stateful-logic semantics. */
class Crossbar
{
  public:
    /** Words per paged block: 8 words = 512 rows of one column. */
    static constexpr uint32_t kBlockWords = 8;
    /** Block-table sentinel for an elided (all-zero) block. */
    static constexpr uint32_t kAbsent = UINT32_MAX;

    /**
     * @p storage defaults to Dense so direct constructions (unit
     * tests, host tooling) get the reference slab layout; the engine
     * stack passes EngineConfig::storage, whose default is Paged.
     */
    explicit Crossbar(const Geometry &geo,
                      XbarStorage storage = XbarStorage::Dense);

    // The pool is refcounted state: a bitwise copy would alias blocks
    // without owning them. Moves are fine (the source is emptied).
    Crossbar(const Crossbar &) = delete;
    Crossbar &operator=(const Crossbar &) = delete;
    Crossbar(Crossbar &&) = default;
    Crossbar &operator=(Crossbar &&) = default;

    /**
     * Execute an expanded horizontal logic op on all mask-selected
     * rows (@p rowMask is the realized row-mask bit vector).
     */
    void logicH(const HalfGates &hg, std::span<const uint64_t> rowMask);

    /**
     * INIT1 of the output columns fused with the NOR/NOT expanded in
     * @p hg: one pass computing out = (out & ~mask) | (~(inA|inB) &
     * mask), bit-identical to logicH(INIT1) followed by logicH(@p hg)
     * when no input aliases an output (the trace builder's fusion
     * precondition).
     */
    void logicHFusedInit1(const HalfGates &hg,
                          std::span<const uint64_t> rowMask);

    /**
     * Blend-free variants for an ALL-ONES realized row mask (every
     * mask word == ~0; SegmentTrace::rowMaskFull): INIT collapses to
     * a fill, gates and writes drop the `& mask` term from the inner
     * word loop. Bit-identical to the masked forms under that mask.
     */
    void logicHFull(const HalfGates &hg);
    void logicHFusedInit1Full(const HalfGates &hg);
    void writeFull(uint32_t slot, uint32_t value);
    void writeStripeFull(std::span<const StripeWrite> ws);

    /**
     * Replay one compiled program (sim/replay_program.hpp) on this
     * crossbar (index @p self): the pre-resolved, specialized form of
     * replaySegment used for frozen cached traces. Dispatches once
     * into a {Dense, Paged} x {all-full masks, partial} template
     * executor; @p work accumulates applied-op counts exactly as
     * replaySegment would (conserved across compilation).
     */
    void replayProgram(const ReplayProgram &prog, uint32_t self,
                       Stats *work);

    /**
     * Crossbar-major replay: apply every op of @p trace whose
     * crossbar-mask snapshot selects this crossbar (index @p self),
     * in segment order, while this crossbar's column-major state is
     * hot in cache. The inner loop of the trace-based engines
     * (sim/segment_trace.hpp). @p work, if non-null, accumulates one
     * op per application (two for fused INIT+gate pairs, one per
     * merged Write of a stripe) — the sharded engine's load-balance
     * diagnostic, conserved exactly across fusion.
     */
    void replaySegment(const SegmentTrace &trace, uint32_t self,
                       Stats *work);

    /**
     * Replay a run of consecutive LogicV trace ops sharing one
     * intra-partition index column-major: the whole run is applied to
     * each partition column while its words are hot, instead of
     * sweeping all partitions once per op. Ops whose crossbar-mask
     * snapshot does not select @p self are skipped.
     */
    void replayLogicVRun(const TraceOp *run, size_t n, uint32_t self,
                         Stats *work);

    /**
     * Execute a vertical logic op: gate from @p rowIn to @p rowOut on
     * the column at intra-partition index @p slot of every partition.
     */
    void logicV(Gate g, uint32_t rowIn, uint32_t rowOut, uint32_t slot);

    /** Strided N-bit write to all mask-selected rows (paper Fig. 6). */
    void write(uint32_t slot, uint32_t value,
               std::span<const uint64_t> rowMask);

    /**
     * Apply a stripe of distinct-slot strided writes under one shared
     * row mask, partition-major: for each partition, all stripe
     * columns are written while the realized mask word is loaded once
     * (the replay form of the trace fuser's adjacent-Write merge).
     * Bit-identical to applying the writes in order — the slots are
     * pairwise distinct, so the strided column sets are disjoint.
     */
    void writeStripe(std::span<const StripeWrite> ws,
                     std::span<const uint64_t> rowMask);

    /** Strided N-bit read of one row. */
    uint32_t read(uint32_t slot, uint32_t row) const;

    /** Unconditional single-row N-bit write (used by move ops). */
    void writeRow(uint32_t slot, uint32_t value, uint32_t row);

    /**
     * Bulk strided read: the values of @p count consecutive rows
     * [row, row+count) of slot @p slot into @p out, converted from
     * column-major storage to the row-major host buffer 64 rows at a
     * time via an in-register 64x64 bit-matrix transpose (Hacker's
     * Delight 7-3 adapted to LSB-0 numbering) — ~64 word ops per 64
     * values instead of 64*wordBits single-bit probes. Paged fast
     * path: a window whose source blocks are all absent (or all zero)
     * zero-fills the output with no transpose and no block probes.
     * Returns the 64-bit words moved through the transpose
     * (observability; 64 per transposed window).
     */
    uint64_t gatherRows(uint32_t slot, uint32_t row, uint32_t count,
                        uint32_t *out) const;

    /**
     * Bulk strided write of @p count consecutive rows from the
     * row-major @p values — the scatter inverse of gatherRows,
     * bit-identical to count writeRow calls. Zero-elision is
     * preserved: a plane word receiving no set bit only clears, so
     * absent paged blocks stay absent (an all-zero upload never
     * densifies anything), and an all-zero window skips the transpose
     * entirely. Returns words transposed.
     */
    uint64_t scatterRows(uint32_t slot, uint32_t row, uint32_t count,
                         const uint32_t *values);

    /** Raw bit access for tests. */
    bool bit(uint32_t row, uint32_t col) const;
    void setBit(uint32_t row, uint32_t col, bool v);

    /**
     * Refcounted copy-on-write image of the crossbar's full state at
     * the instant of the snapshot() call. Paged snapshots share every
     * present block with the source (O(live data) to take, zero block
     * copies); dense snapshots deep-copy the slab. A snapshot stays
     * valid after the source crossbar mutates or is destroyed.
     * Synchronisation contract: create/restore/destroy only while no
     * replay is mutating the SOURCE crossbar (see file header).
     */
    class Snapshot
    {
      public:
        Snapshot() = default;
        Snapshot(const Snapshot &o);
        Snapshot &operator=(const Snapshot &o);
        Snapshot(Snapshot &&o) noexcept;
        Snapshot &operator=(Snapshot &&o) noexcept;
        ~Snapshot();

        /** Strided N-bit read of one row, as Crossbar::read. */
        uint32_t read(uint32_t slot, uint32_t row) const;
        /** Raw bit access, as Crossbar::bit. */
        bool bit(uint32_t row, uint32_t col) const;

        /** Canonical non-zero-block walk of the snapshot image, as
         *  Crossbar::forEachNonZeroBlock. */
        void forEachNonZeroBlock(
            const std::function<void(uint32_t col, uint32_t b,
                                     const uint64_t *w, uint32_t n)>
                &fn) const;

      private:
        friend class Crossbar;
        /** Drop every block reference and empty the image. */
        void release();
        /** Words of block @p b of column @p col, or null if elided
         *  (dense snapshots are never elided). */
        const uint64_t *blockRO(uint32_t col, uint32_t b) const;

        const Geometry *geo_ = nullptr;
        uint32_t wordsPerCol_ = 0;
        uint32_t blocksPerCol_ = 0;
        std::shared_ptr<BlockPool> pool_;  //!< paged: shared block pool
        std::vector<uint32_t> table_;      //!< paged: refcounted ids
        std::vector<uint64_t> dense_;      //!< dense: deep slab copy
    };

    /** Checkpoint the current state (see Snapshot). */
    Snapshot snapshot() const;

    /**
     * Restore the state captured by @p s (which must come from a
     * crossbar of the same geometry and storage mode). Paged restore
     * is O(live data): the block table re-adopts the snapshot's
     * shared blocks, and subsequent mutation clones on write.
     */
    void restore(const Snapshot &s);

    /**
     * Re-elide every materialised block that has decayed to all-zero
     * (writes clear bits in place — elision is never checked on the
     * hot path). No-op for dense storage. Returns blocks elided.
     */
    uint64_t compact();

    /** Point-in-time storage footprint (never architectural state). */
    StorageGauges storageGauges() const;

    /** Whether column @p col is laid out as one contiguous run in the
     *  block pool (paged storage; see file header). Observability
     *  only — runs never change architectural state. */
    bool columnIsRun(uint32_t col) const;

    /**
     * CANONICAL walk of the state for serialization and checksums:
     * invoke @p fn for every block that holds at least one set bit,
     * ascending (col, block), with its words and used word count (the
     * tail block of a column may be short). A materialised all-zero
     * block is SKIPPED, and dense storage walks the same block grid —
     * so two crossbars in equal state produce the identical call
     * sequence regardless of storage mode or elision history (the
     * property that makes checkpoint images and state checksums
     * storage-independent).
     */
    void forEachNonZeroBlock(
        const std::function<void(uint32_t col, uint32_t b,
                                 const uint64_t *w, uint32_t n)> &fn)
        const;

    /**
     * Order-sensitive FNV-1a digest over the canonical non-zero-block
     * walk (positions + words). Equal states hash equal across
     * storage modes; the PYPIM_VERIFY_STATE machinery compares these
     * at batch and drain points to detect silent corruption.
     */
    uint64_t stateChecksum() const;

    /**
     * Reset to all-zero: dense zero-fills the slab; paged drops every
     * present block reference (keeping the table and pool for reuse).
     * The restore path's first step before loadBlock replays an image.
     */
    void resetState();

    /**
     * Overwrite block @p b of column @p col with @p n words from
     * @p w (checkpoint restore; COW-safe via blockRW). All-zero
     * payloads are skipped rather than densified.
     */
    void loadBlock(uint32_t col, uint32_t b, const uint64_t *w,
                   uint32_t n);

    /**
     * Install the owning pipeline's replaying flag: snapshot() and
     * restore() then panic if called while a batch replay is in
     * flight — enforcing the drain-point synchronisation contract
     * (file header) instead of relying on it.
     */
    void setBusyFlag(const std::atomic<bool> *busy) { busy_ = busy; }

    /**
     * Bit-exact state comparison (engine-parity tests). Both crossbars
     * must share a geometry; storage modes may differ — an absent
     * block compares equal to an all-zero dense region, so a paged
     * crossbar checks against the dense oracle directly.
     */
    bool sameState(const Crossbar &other) const;
    /** Bit-exact comparison against a snapshot of same geometry. */
    bool sameState(const Snapshot &s) const;

    const Geometry &geometry() const { return *geo_; }
    XbarStorage storage() const { return storage_; }

  private:
    uint64_t *colWords(uint32_t col)
    {
        return state_.data() + static_cast<size_t>(col) * wordsPerCol_;
    }
    const uint64_t *
    colWords(uint32_t col) const
    {
        return state_.data() + static_cast<size_t>(col) * wordsPerCol_;
    }

    /** Words in block @p b of a column (the tail block may be short). */
    uint32_t
    blockWords(uint32_t b) const
    {
        const uint32_t base = b * kBlockWords;
        return wordsPerCol_ - base < kBlockWords ? wordsPerCol_ - base
                                                 : kBlockWords;
    }

    /** Block id slot of (col, block) in the table. */
    size_t
    tableIndex(uint32_t col, uint32_t b) const
    {
        return static_cast<size_t>(col) * blocksPerCol_ + b;
    }

    /** Read-only block words, or null if absent. Never allocates. */
    const uint64_t *blockRO(uint32_t col, uint32_t b) const;
    /**
     * Mutable block words, materialising a zeroed block if absent and
     * cloning first if shared with a snapshot (copy-on-write). May
     * grow the pool: fetch ALL read-only input pointers AFTER the
     * output's blockRW within one (section, block) step.
     */
    uint64_t *blockRW(uint32_t col, uint32_t b);
    /**
     * Mutable block words of a PRESENT block, or null if absent —
     * for ops that can only clear bits (Init0, NOR/NOT outputs),
     * where an absent output stays absent. Clones if shared.
     */
    uint64_t *blockIfPresent(uint32_t col, uint32_t b);

    /** Allocate the lazy block table / pool on first densification
     *  (the emptiness test is inline; the allocation is not). */
    void
    ensureTable()
    {
        if (table_.empty())
            allocTable();
    }
    void allocTable();

    /**
     * Base pointers of the paged table, run bits and pool for the
     * kernels of one op (a null table: never densified). Valid until
     * the next call that can allocate or clone a block (allocColRun,
     * colBlocks, vgatesBlocks), after which the caller takes a fresh
     * one — so the per-column lookups stay in registers.
     */
    struct PagedView
    {
        const uint32_t *table = nullptr;
        const uint64_t *runs = nullptr;
        const uint32_t *refs = nullptr;
        uint64_t *words = nullptr;
        uint32_t blocksPerCol = 0;
        uint32_t blockStride = 0;  //!< words per pool block
        /** Some pool block is shared with a snapshot. Sharing only
         *  grows at snapshot()/restore(), never inside an op, so a
         *  false here lets runRW skip the refcount lookup. */
        bool anyShared = false;

        /** Whether @p col is a run (table must be non-null). A present
         *  single-block column is one trivially; deeper columns carry
         *  their run bit. */
        bool
        isRun(uint32_t col) const
        {
            if (blocksPerCol == 1)
                return table[col] != kAbsent;
            return (runs[col >> 6] >> (col & 63)) & 1;
        }
        /** The table exists and every column is one block: the kOne
         *  resolvers below apply (no run bits, no null-table test). */
        bool oneBlock() const { return table && blocksPerCol == 1; }
        /** Words of run column @p col if it is unshared (safe to write
         *  in place), else null. */
        template <bool kOne = false>
        uint64_t *
        runRW(uint32_t col) const
        {
            uint32_t id;
            if constexpr (kOne) {
                id = table[col];
                if (id == kAbsent)
                    return nullptr;
            } else {
                if (!table || !isRun(col))
                    return nullptr;
                id = table[static_cast<size_t>(col) * blocksPerCol];
            }
            // A snapshot copies the whole table, so it shares a run
            // whole: block 0's refcount speaks for every block.
            return anyShared && refs[id] != 1
                ? nullptr
                : words + static_cast<size_t>(id) * blockStride;
        }
        /** Read-only words of @p col: the run span, an all-zero span
         *  if the column is entirely absent, else null (per-block
         *  path). */
        template <bool kOne = false>
        const uint64_t *runRO(uint32_t col) const;
    };
    PagedView pagedView() const;

    bool isRun(uint32_t col) const { return pagedView().isRun(col); }
    void
    clearRun(uint32_t col)
    {
        runs_[col >> 6] &= ~(1ull << (col & 63));
    }
    /** Every block of @p col is absent. */
    bool colAbsent(uint32_t col) const;
    /** Words of run column @p col if it is unshared, else null. */
    uint64_t *runRW(uint32_t col) { return pagedView().runRW(col); }
    /**
     * runRW, or — when @p col is entirely absent — allocate it as a
     * fresh zeroed run (the caller is about to materialise every
     * block). Null when the column is partially present, shared, or
     * the pool cannot place a run without stranding free blocks. May
     * grow the pool: resolve inputs AFTER this.
     */
    uint64_t *runMaterialise(uint32_t col);
    /** The allocating half of runMaterialise. */
    uint64_t *allocColRun(uint32_t col);

    // The paged column kernels (see the file header): every paged op
    // kind, interpreted or compiled, masked or full-mask, reduces to
    // these. colOp resolves the output column, then the inputs, and
    // runs the dense word loop over the spans; colBlocks is the one
    // per-block loop it falls back to.
    template <ColKind K, bool kOne = false>
    void colOp(uint32_t out, uint32_t a, uint32_t b, const ColMask &m,
               PagedView &v);
    void colOp(ColKind k, uint32_t out, uint32_t a, uint32_t b,
               const ColMask &m, PagedView &v);
    void colBlocks(ColKind k, uint32_t out, uint32_t a, uint32_t b,
                   const ColMask &m);
    /** Apply @p n LogicV gates in order to partition column @p col:
     *  on its span while runRW resolves, per block otherwise. */
    template <bool kOne = false>
    void vgatesCol(uint32_t col, const VGate *gs, size_t n,
                   PagedView &v);
    /** vgatesCol over the column at index @p slot of every
     *  partition (one LogicV run, or one LogicV op). */
    void vgatesSlot(uint32_t slot, const VGate *gs, size_t n,
                    PagedView &v);
    void vgatesBlocks(uint32_t col, const VGate *gs, size_t n);
    /** colOp<K> over the active sections of one LogicH expansion, or
     *  over the sections of one kind-homogeneous compiled pass. */
    template <ColKind K>
    void hSections(const Section *secs, uint32_t n, const ColMask &m,
                   PagedView &v);
    template <ColKind K, class PSec>
    void pSections(const PSec *secs, uint32_t n, const ColMask &m,
                   PagedView &v);

    // Paged op bodies over the column kernels; the public entry points
    // branch once per op so the dense loops stay byte-identical to the
    // historical implementation.
    // Each takes the caller's view, so a segment or program replay
    // resolves the base pointers once, not once per op.
    /** One LogicH (INIT1-fused when @p fused) under @p m. */
    void logicHPaged(const HalfGates &hg, bool fused, const ColMask &m,
                     PagedView &v);
    /** A stripe of distinct-slot writes (a plain write is one). */
    void writeStripePaged(std::span<const StripeWrite> ws,
                          const ColMask &m, PagedView &v);
    /**
     * The compiled-replay executor, specialized over the storage
     * representation and the all-masks-full fast path (crossbar.cpp
     * instantiates all four). kFull deletes the mask blend from every
     * inner loop; the kFull=false body still takes the blend-free
     * kernels per instruction when that instruction's mask is full.
     */
    template <bool kPaged, bool kFull>
    void replayProgramT(const ReplayProgram &prog, uint32_t self,
                        Stats *work);
    uint64_t gatherRowsPaged(uint32_t slot, uint32_t row,
                             uint32_t count, uint32_t *out) const;
    uint64_t scatterRowsPaged(uint32_t slot, uint32_t row,
                              uint32_t count, const uint32_t *values);

    const Geometry *geo_;
    uint32_t wordsPerCol_;
    uint32_t blocksPerCol_;
    XbarStorage storage_;
    std::vector<uint64_t> state_;      //!< dense slab (empty if paged)
    std::vector<uint32_t> table_;      //!< paged block ids (lazy)
    std::vector<uint64_t> runs_;       //!< paged run bits (with table_)
    std::shared_ptr<BlockPool> pool_;  //!< paged block pool (lazy)
    /** Pipeline's replaying flag (null when not pipelined). */
    const std::atomic<bool> *busy_ = nullptr;
};

} // namespace pypim

#endif // PYPIM_SIM_CROSSBAR_HPP
