/**
 * @file
 * Decode-once segment traces for loop-interchanged (crossbar-major)
 * replay.
 *
 * A batch of micro-ops splits into SEGMENTS at every cross-crossbar
 * barrier op (Read, H-tree Move). Within a segment every op is a
 * broadcast over independent crossbars, so the order of the loops
 * "for op / for crossbar" may be interchanged freely. The engines'
 * historical replay was op-major: each op swept the whole crossbar
 * array before the next op, streaming a multi-megabyte working set
 * through the cache once PER OP at large crossbar counts, and
 * re-decoding (and re-expanding every LogicH) once per batch replay
 * even though the decoded form is loop-invariant across crossbars.
 *
 * SegmentTrace is the loop-invariant part, computed exactly once per
 * segment by buildSegmentTrace():
 *
 *  - decoded work ops (Write / LogicH / LogicV); a LogicH op points at
 *    its half-gate expansion in the HalfGatesTable it was built with
 *    (sim/half_gates_table.hpp), which expands each distinct LogicH
 *    word once per table, not once per op;
 *  - mask ops ABSORBED: each work op carries a snapshot of the
 *    effective crossbar mask and a handle to the expanded row-mask
 *    bit-vector in force when it executed (snapshots are deduplicated
 *    while the mask is unchanged), so replay never re-tracks mask
 *    state;
 *  - consecutive INIT1 -> NOR/NOT pairs on the same output columns
 *    under identical masks fused into a single pass over the column
 *    words (the driver's canonical stateful-logic idiom);
 *  - the hull [xbLo, xbHi) of crossbars the segment can touch.
 *
 * Replay then runs crossbar-major (Crossbar::replaySegment): for each
 * crossbar, apply the ENTIRE segment before moving on, keeping that
 * crossbar's condensed column-major state hot in L1/L2. The trace is
 * also the natural hand-off unit for pipelined or device-offloaded
 * backends (ROADMAP: double-buffered driver overlap, GPU engine) —
 * it is immutable after building and free of host pointers into
 * mutable simulator state: its only outside pointers are into the
 * HalfGatesTable, whose entries never change, and a BatchTrace keeps
 * that table alive.
 *
 * All storage is arena-style and reused across segments/batches via
 * clear(), so steady-state building allocates only for new
 * HalfGatesTable entries.
 */
#ifndef PYPIM_SIM_SEGMENT_TRACE_HPP
#define PYPIM_SIM_SEGMENT_TRACE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/crossbar.hpp"
#include "uarch/microop.hpp"
#include "uarch/partition.hpp"
#include "uarch/range.hpp"

namespace pypim
{

/**
 * In-stream mask state (paper §III-B): the crossbar activation range
 * and the stored row mask, kept together with the row mask's expanded
 * bit-vector realisation so read/write/logic ops reuse it.
 */
struct MaskState
{
    Range xb;
    Range row;
    std::vector<uint64_t> rowWords;

    /** Power-on state: all crossbars and all rows selected. */
    void
    reset(const Geometry &geo)
    {
        xb = Range::all(geo.numCrossbars);
        setRow(Range::all(geo.rows), geo.rows);
    }

    /** Install a new row mask and (re)expand it, reusing rowWords. */
    void
    setRow(const Range &r, uint32_t rows)
    {
        row = r;
        row.expandInto(rows, rowWords);
    }
};

/** True iff the op must serialise the whole crossbar array. */
inline bool
isBarrierOp(OpType t)
{
    return t == OpType::Move || t == OpType::Read;
}

/**
 * One decoded work op of a segment with its effective masks. Only the
 * fields of the op's type are meaningful (as in MicroOp).
 */
struct TraceOp
{
    OpType type = OpType::Write;
    Gate gate = Gate::Init0;    //!< logicV gate
    /** LogicH with a preceding INIT1 of the same outputs folded in. */
    bool fusedInit = false;
    uint32_t index = 0;         //!< write / logicV slot
    uint32_t value = 0;         //!< write payload
    /** LogicH: expansion, an entry of the HalfGatesTable the trace
     *  was built with or (after an INIT-chain merge) of
     *  SegmentTrace::merged. */
    const HalfGates *hg = nullptr;
    uint32_t rowMask = 0;       //!< write/logicH: row-snapshot id
    uint32_t rowIn = 0, rowOut = 0;  //!< logicV rows
    /**
     * Write only: number of adjacent Writes merged into this op by
     * the trace fuser's stripe pass (1 = a plain un-merged Write).
     * When > 1, @p wrun indexes the first of wn pairwise-distinct
     * {slot, value} pairs in SegmentTrace::writePairs, all applied
     * under this op's masks by Crossbar::writeStripe.
     */
    uint32_t wn = 1;
    uint32_t wrun = 0;          //!< SegmentTrace::writePairs offset
    Range xb;                   //!< effective crossbar mask snapshot
};

/** One decoded, replay-ready barrier-free segment. */
struct SegmentTrace
{
    std::vector<TraceOp> ops;
    /**
     * Trace-owned expansions written by the window pass's INIT-chain
     * merge (sim/batch_trace.hpp). A merge appends sections, so it
     * copies the shared table entry here first and never writes
     * through to the table. Heap-allocated, so the ops' pointers
     * survive this vector growing.
     */
    std::vector<std::unique_ptr<HalfGates>> merged;
    /** Row-mask snapshots, wordsPerMask words each, back to back. */
    std::vector<uint64_t> rowWords;
    /**
     * One flag per row-mask snapshot, set iff every realized word is
     * all-ones (the all-rows mask of a geometry with rows a multiple
     * of 64 — the overwhelmingly common case). Replay kernels then
     * skip the `& mask` blend entirely: out |= ~0 / out &= 0 collapse
     * to fills, gates drop the blend term. A full mask over fewer
     * than 64 rows realizes a partial tail word and is deliberately
     * NOT flagged — the blend is what keeps the padding bits clear.
     */
    std::vector<uint8_t> rowMaskFull;
    /** Per row-mask snapshot: the paged blocks its words reach, so the
     *  paged kernels decide presence without rescanning the mask. */
    std::vector<MaskBlocks> rowMaskBlocks;
    /** Stripe arena: merged-Write pairs referenced by TraceOp::wrun. */
    std::vector<StripeWrite> writePairs;
    uint32_t wordsPerMask = 0;
    /** Hull of crossbars any op can touch: [xbLo, xbHi). */
    uint32_t xbLo = 0, xbHi = 0;

    /** Reset for a new segment, keeping all arena capacity. */
    void
    clear(uint32_t rows)
    {
        wordsPerMask = (rows + 63) / 64;
        ops.clear();
        merged.clear();
        rowWords.clear();
        rowMaskFull.clear();
        rowMaskBlocks.clear();
        writePairs.clear();
        xbLo = 0;
        xbHi = 0;
    }

    /** Expanded row-mask bit vector of snapshot @p id. */
    std::span<const uint64_t>
    rowMask(uint32_t id) const
    {
        return {rowWords.data() +
                    static_cast<size_t>(id) * wordsPerMask,
                wordsPerMask};
    }

    bool empty() const { return ops.empty(); }
};

class HalfGatesTable;

/**
 * True iff an INIT1 LogicH may be folded into the NOR/NOT @p nor:
 * both must drive exactly the same set of output columns, and no
 * input column of the NOR/NOT may alias any of those outputs (the
 * gate must read pre-INIT state of nothing it initialises). Shared
 * between the builder's adjacent fusion and the window fusion pass
 * (sim/batch_trace.hpp).
 */
bool fusableInitNor(const HalfGates &init, const HalfGates &nor);

/**
 * Decode the barrier-free segment @p ops[0..n) into @p trace for the
 * geometry of @p table, interning every LogicH expansion there.
 *
 * This is the engine's shared pre-pass: it validates every op exactly
 * as the op-major reference would (so a malformed op aborts BEFORE any
 * crossbar is touched), records the architectural @p stats, and
 * advances the authoritative @p mask state past the segment. It
 * touches no crossbar: O(n), not O(n * crossbars). Runs on the
 * table's writer thread (sim/half_gates_table.hpp).
 *
 * Panics (InternalError) on a barrier op — callers split at
 * isBarrierOp() first.
 */
void buildSegmentTrace(const Word *ops, size_t n, HalfGatesTable &table,
                       MaskState &mask, Stats &stats,
                       SegmentTrace &trace);

} // namespace pypim

#endif // PYPIM_SIM_SEGMENT_TRACE_HPP
