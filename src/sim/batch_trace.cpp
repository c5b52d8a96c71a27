#include "sim/batch_trace.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sim/engine.hpp"
#include "sim/half_gates_table.hpp"
#include "sim/htree.hpp"
#include "uarch/partition.hpp"

namespace pypim
{

bool
leadsWithMasks(const Word *ops, size_t n)
{
    bool xb = false, row = false;
    for (size_t i = 0; i < n; ++i) {
        const OpType t = enc::peekType(ops[i]);
        if (t == OpType::CrossbarMask)
            xb = true;
        else if (t == OpType::RowMask)
            row = true;
        else
            return xb && row;
        if (xb && row)
            return true;
    }
    return xb && row;
}

size_t
BatchTrace::bytes() const
{
    size_t b = sizeof(BatchTrace) + items.capacity() * sizeof(Item) +
               segments.capacity() * sizeof(SegmentTrace) +
               programs.capacity() * sizeof(ReplayProgram) +
               sourceOps.capacity() * sizeof(Word);
    for (const SegmentTrace &t : segments) {
        b += t.ops.capacity() * sizeof(TraceOp) +
             t.rowWords.capacity() * sizeof(uint64_t) +
             t.rowMaskFull.capacity() * sizeof(uint8_t) +
             t.rowMaskBlocks.capacity() * sizeof(MaskBlocks) +
             t.writePairs.capacity() * sizeof(StripeWrite) +
             t.merged.capacity() * sizeof(t.merged[0]) +
             t.merged.size() * sizeof(HalfGates);
    }
    for (const ReplayProgram &p : programs) {
        b += p.instrs.capacity() * sizeof(ReplayProgram::Instr) +
             p.sections.capacity() * sizeof(ReplayProgram::PSection) +
             p.pairs.capacity() * sizeof(StripeWrite) +
             p.vgates.capacity() * sizeof(ReplayProgram::VGate) +
             p.maskWords.capacity() * sizeof(uint64_t) +
             p.maskBlocks.capacity() * sizeof(MaskBlocks);
    }
    return b;
}

void
BatchTrace::shrinkToFit()
{
    segments.resize(used);
    for (SegmentTrace &t : segments) {
        t.ops.shrink_to_fit();
        t.rowWords.shrink_to_fit();
        t.rowMaskFull.shrink_to_fit();
        t.rowMaskBlocks.shrink_to_fit();
        t.writePairs.shrink_to_fit();
    }
    for (ReplayProgram &p : programs) {
        p.instrs.shrink_to_fit();
        p.sections.shrink_to_fit();
        p.pairs.shrink_to_fit();
        p.vgates.shrink_to_fit();
        p.maskWords.shrink_to_fit();
        p.maskBlocks.shrink_to_fit();
    }
    items.shrink_to_fit();
}

void
buildBatchTrace(const Word *ops, size_t n,
                const std::shared_ptr<HalfGatesTable> &table,
                const HTree &htree, MaskState &mask, BatchTrace &batch)
{
    const Geometry &geo = table->geometry();
    batch.halfGates = table;
    batch.geoRows = geo.rows;
    batch.geoCols = geo.cols;
    batch.geoPartitions = geo.partitions;
    batch.geoCrossbars = geo.numCrossbars;
    size_t i = 0;
    while (i < n) {
        const OpType type = enc::peekType(ops[i]);
        if (isBarrierOp(type)) {
            const MicroOp op = MicroOp::decode(ops[i]);
            if (type == OpType::Read) {
                // Data-less read: the response is dropped and no state
                // changes, so validating and counting it here absorbs
                // the op entirely — nothing to queue.
                validateRead(op, mask.xb, mask.row, geo);
                batch.stats.record(OpClass::Read);
            } else {
                const int64_t dist = validateMove(op, mask.xb, geo);
                batch.stats.record(OpClass::Move,
                                   htree.moveCycles(mask.xb, dist));
                BatchTrace::Item item;
                item.kind = BatchTrace::Item::Kind::Move;
                item.op = op;
                item.xb = mask.xb;
                batch.items.push_back(item);
            }
            ++i;
            continue;
        }
        size_t j = i + 1;
        while (j < n && !isBarrierOp(enc::peekType(ops[j])))
            ++j;
        SegmentTrace &trace = batch.nextSegment(geo.rows);
        buildSegmentTrace(ops + i, j - i, *table, mask, batch.stats,
                          trace);
        if (trace.empty()) {
            --batch.used;  // mask-only segment: arena back to the pool
        } else {
            BatchTrace::Item item;
            item.kind = BatchTrace::Item::Kind::Segment;
            item.seg = batch.used - 1;
            batch.items.push_back(item);
        }
        i = j;
    }
    batch.finalXb = mask.xb;
    batch.finalRow = mask.row;
}

namespace
{

/**
 * Window-fuse one segment (see fuseBatchTrace for the legality
 * rules). Single forward pass; candidates and conflicts are tracked
 * at COLUMN granularity through touched[] (index of the last live op
 * that read or wrote each column — a stateful NOR/NOT reads its
 * output too, and conservatism about rows/crossbars only costs missed
 * fusions, never correctness).
 */
void
fuseSegment(SegmentTrace &t, HalfGatesTable &table,
            BatchTrace::Fusion &fusion)
{
    // Candidates more than kWindow ops back are dropped: the driver's
    // INIT/compute idiom is local, and a bounded window keeps the
    // pass O(n * window).
    constexpr size_t kWindow = 32;

    const size_t n = t.ops.size();
    if (n < 2)
        return;
    const Geometry &geo = table.geometry();
    const uint32_t pw = geo.partitionWidth();
    std::vector<int64_t> touched(geo.cols, -1);
    std::vector<int64_t> lastWrite(geo.slots(), -1);
    std::vector<uint8_t> dead(n, 0);
    /** Op's expansion is a trace-owned merge result, not a table
     *  entry (so its fusability is not memoised). */
    std::vector<uint8_t> owned(n, 0);
    std::vector<size_t> initWindow;  //!< live un-fused INIT1 indices

    // Every column op index j reads or writes.
    const auto forEachCol = [&](const TraceOp &op, auto &&fn) {
        switch (op.type) {
          case OpType::Write:
            for (uint32_t b = 0; b < geo.wordBits; ++b)
                fn(geo.column(op.index, b));
            break;
          case OpType::LogicV:
            for (uint32_t p = 0; p < geo.partitions; ++p)
                fn(p * pw + op.index);
            break;
          case OpType::LogicH: {
            const HalfGates &hg = *op.hg;
            for (uint32_t s = 0; s < hg.numSections; ++s) {
                const Section &sec = hg.sections[s];
                if (!sec.active())
                    continue;
                if (sec.outCol >= 0)
                    fn(static_cast<uint32_t>(sec.outCol));
                for (uint32_t k = 0; k < sec.numIn; ++k)
                    fn(static_cast<uint32_t>(sec.inCol[k]));
            }
            break;
          }
          default:
            break;
        }
    };

    const auto rowContains = [&](uint32_t sup, uint32_t sub) {
        if (sup == sub)
            return true;
        const auto a = t.rowMask(sup);
        const auto b = t.rowMask(sub);
        for (size_t w = 0; w < a.size(); ++w)
            if (b[w] & ~a[w])
                return false;
        return true;
    };
    const auto rowEqual = [&](uint32_t a, uint32_t b) {
        if (a == b)
            return true;
        const auto x = t.rowMask(a);
        const auto y = t.rowMask(b);
        return std::equal(x.begin(), x.end(), y.begin());
    };

    // True iff no live op after index i touched any active output
    // column of INIT half-gates @p hg (i.e. the INIT may legally move
    // forward past everything since).
    const auto outsUntouchedSince = [&](const HalfGates &hg,
                                        int64_t i) {
        for (uint32_t s = 0; s < hg.numSections; ++s) {
            const Section &sec = hg.sections[s];
            if (sec.active() &&
                touched[static_cast<uint32_t>(sec.outCol)] > i)
                return false;
        }
        return true;
    };

    for (size_t j = 0; j < n; ++j) {
        TraceOp &op = t.ops[j];
        const Gate hgGate =
            op.type == OpType::LogicH ? op.hg->gate : Gate::Init0;
        const bool isInit1 = op.type == OpType::LogicH &&
                             !op.fusedInit && hgGate == Gate::Init1;
        const bool isGate =
            op.type == OpType::LogicH && !op.fusedInit &&
            (hgGate == Gate::Nor || hgGate == Gate::Not);

        // Drop window candidates that fell out of range.
        while (!initWindow.empty() && j - initWindow.front() > kWindow)
            initWindow.erase(initWindow.begin());

        if (op.type == OpType::Write) {
            // WAW: the previous Write to this slot is dead if this one
            // covers it and nothing touched the slot in between
            // (lastWrite is invalidated below on any such touch).
            int64_t &prev = lastWrite[op.index];
            if (prev >= 0) {
                const TraceOp &p = t.ops[prev];
                if (op.xb.containsAll(p.xb) &&
                    rowContains(op.rowMask, p.rowMask)) {
                    dead[prev] = 1;
                    ++fusion.waw;
                }
            }
            prev = static_cast<int64_t>(j);
        } else if (isGate) {
            // Windowed INIT1 -> NOR/NOT: same as the builder's
            // adjacent fusion, but the INIT may sit anywhere in the
            // window as long as its outputs were not touched since.
            for (auto it = initWindow.rbegin();
                 it != initWindow.rend(); ++it) {
                const size_t i = *it;
                if (dead[i])
                    continue;
                const TraceOp &init = t.ops[i];
                if (init.xb != op.xb ||
                    !rowEqual(init.rowMask, op.rowMask))
                    continue;
                const HalfGates &ih = *init.hg;
                if (owned[i] ? !fusableInitNor(ih, *op.hg)
                             : !table.fusable(ih, *op.hg))
                    continue;
                if (!outsUntouchedSince(ih,
                                        static_cast<int64_t>(i)))
                    continue;
                dead[i] = 1;
                op.fusedInit = true;
                ++fusion.window;
                break;
            }
        } else if (isInit1) {
            // INIT1 chain: fold an earlier INIT1 into this one by
            // appending its sections (independent columns; INIT1 on a
            // shared column is idempotent, so overlap is harmless).
            // The sections go into a trace-owned copy: op.hg is a
            // table entry other ops and traces share.
            for (auto it = initWindow.rbegin();
                 it != initWindow.rend(); ++it) {
                const size_t i = *it;
                if (dead[i] || i == j)
                    continue;
                const TraceOp &init = t.ops[i];
                if (init.xb != op.xb ||
                    !rowEqual(init.rowMask, op.rowMask))
                    continue;
                const HalfGates &src = *init.hg;
                uint32_t active = 0;
                for (uint32_t s = 0; s < src.numSections; ++s)
                    active += src.sections[s].active() ? 1 : 0;
                if (op.hg->numSections + active > maxPartitions)
                    continue;  // section arena full: skip this pair
                if (!outsUntouchedSince(src,
                                        static_cast<int64_t>(i)))
                    continue;
                t.merged.push_back(std::make_unique<HalfGates>(*op.hg));
                HalfGates &dst = *t.merged.back();
                for (uint32_t s = 0; s < src.numSections; ++s)
                    if (src.sections[s].active())
                        dst.sections[dst.numSections++] =
                            src.sections[s];
                op.hg = &dst;
                owned[j] = 1;
                dead[i] = 1;
                ++fusion.initChain;
                break;
            }
        }

        // Record this op's footprint. Conflicting touches invalidate
        // WAW candidates of the slots they land in — except a Write's
        // own slot, whose candidacy was just installed above.
        forEachCol(op, [&](uint32_t col) {
            touched[col] = static_cast<int64_t>(j);
            if (op.type != OpType::Write)
                lastWrite[geo.slotOf(col)] = -1;
        });
        if (isInit1)
            initWindow.push_back(j);
    }

    // Compact the survivors and refresh the crossbar hull.
    size_t w = 0;
    uint32_t lo = UINT32_MAX, hi = 0;
    for (size_t j = 0; j < n; ++j) {
        if (dead[j])
            continue;
        lo = std::min(lo, t.ops[j].xb.start);
        hi = std::max(hi, t.ops[j].xb.stop + 1);
        t.ops[w++] = t.ops[j];
    }
    if (w != n) {
        t.ops.resize(w);
        t.xbLo = w ? lo : 0;
        t.xbHi = w ? hi : 0;
    }
}

/**
 * Stripe-merge pass over the compacted ops (see fuseBatchTrace):
 * maximal runs of consecutive Writes under the same crossbar Range
 * and row-mask snapshot with pairwise-distinct slots collapse into
 * one TraceOp with wn = run length, the {slot, value} pairs parked in
 * the segment's writePairs arena. Row-mask ids compare exactly: the
 * builder's content dedup guarantees one id per realized bit pattern
 * within a segment. A repeated slot ends the run — under equal masks
 * the second write would fully overwrite the first sequentially,
 * while a stripe applies both; WAW elimination has already removed
 * the covered one in every such pair, so this guard is belt and
 * braces, not a fusion loss in practice. Runs after fusion, so dead
 * ops can never glue a stripe together.
 */
void
mergeWriteStripes(SegmentTrace &t, BatchTrace::Fusion &fusion)
{
    const size_t n = t.ops.size();
    if (n < 2)
        return;
    size_t w = 0;
    size_t i = 0;
    while (i < n) {
        TraceOp op = t.ops[i];
        if (op.type != OpType::Write) {
            t.ops[w++] = op;
            ++i;
            continue;
        }
        size_t j = i + 1;
        while (j < n) {
            const TraceOp &nx = t.ops[j];
            if (nx.type != OpType::Write || !(nx.xb == op.xb) ||
                nx.rowMask != op.rowMask)
                break;
            bool dupSlot = false;
            for (size_t k = i; k < j && !dupSlot; ++k)
                dupSlot = t.ops[k].index == nx.index;
            if (dupSlot)
                break;
            ++j;
        }
        if (j - i >= 2) {
            op.wn = static_cast<uint32_t>(j - i);
            op.wrun = static_cast<uint32_t>(t.writePairs.size());
            for (size_t k = i; k < j; ++k)
                t.writePairs.push_back(
                    {t.ops[k].index, t.ops[k].value});
            fusion.writeStripe += (j - i) - 1;
        }
        t.ops[w++] = op;
        i = j;
    }
    t.ops.resize(w);
}

} // namespace

void
fuseBatchTrace(BatchTrace &batch, HalfGatesTable &table)
{
    panicIf(batch.halfGates.get() != &table,
            "fuseBatchTrace: batch was built with another table");
    for (uint32_t s = 0; s < batch.used; ++s) {
        fuseSegment(batch.segments[s], table, batch.fusion);
        mergeWriteStripes(batch.segments[s], batch.fusion);
    }
}

} // namespace pypim
