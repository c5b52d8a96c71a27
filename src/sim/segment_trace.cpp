#include "sim/segment_trace.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sim/half_gates_table.hpp"

namespace pypim
{

/**
 * True iff an INIT1 LogicH may be folded into the NOR/NOT that
 * follows it: both must drive exactly the same set of output columns,
 * and no input column of the NOR/NOT may alias any of those outputs
 * (the gate must read pre-INIT state of nothing it initialises —
 * otherwise the fused single pass would observe un-initialised
 * inputs). Active sections are emitted in ascending partition order by
 * expandLogicH, so the output sets compare positionally.
 */
bool
fusableInitNor(const HalfGates &init, const HalfGates &nor)
{
    if (init.gate != Gate::Init1)
        return false;
    int32_t outs[maxPartitions];
    uint32_t n = 0;
    for (uint32_t s = 0; s < init.numSections; ++s) {
        const Section &sec = init.sections[s];
        if (sec.active())
            outs[n++] = sec.outCol;
    }
    uint32_t m = 0;
    for (uint32_t s = 0; s < nor.numSections; ++s) {
        const Section &sec = nor.sections[s];
        if (!sec.active())
            continue;
        if (m >= n || outs[m] != sec.outCol)
            return false;
        ++m;
    }
    if (m != n)
        return false;
    for (uint32_t s = 0; s < nor.numSections; ++s) {
        const Section &sec = nor.sections[s];
        for (uint32_t i = 0; i < sec.numIn; ++i)
            for (uint32_t j = 0; j < n; ++j)
                if (sec.inCol[i] == outs[j])
                    return false;
    }
    return true;
}

void
buildSegmentTrace(const Word *ops, size_t n, HalfGatesTable &table,
                  MaskState &mask, Stats &stats, SegmentTrace &trace)
{
    const Geometry &geo = table.geometry();
    trace.clear(geo.rows);

    // Lazily-materialised row-mask snapshot: snapId identifies the
    // snapshot in force; snapCurrent says the live mask still matches
    // it, so consecutive work ops share one snapshot. After a RowMask
    // op the next work op re-resolves by CONTENT: a re-issued Range
    // that realizes the same row-mask bits — even via a different
    // start/stop/step encoding — reuses the existing id, so the
    // id-comparing fusions downstream (the builder's adjacent
    // INIT1->NOR here, the window pass in batch_trace.cpp) fire
    // across equivalent-Range reissues. The search is linear over the
    // segment's snapshots. Cached signatures pay it once, but the
    // uncached paths (ExecutionEngine::execute, the pipeline producer)
    // build on every submit; they stay cheap because a segment holds
    // few distinct row masks and a run of work ops under one mask
    // resolves once.
    int64_t snapId = -1;
    bool snapCurrent = false;
    const auto rowSnapshot = [&]() -> uint32_t {
        if (!snapCurrent) {
            const size_t count =
                trace.rowWords.size() / trace.wordsPerMask;
            snapId = -1;
            for (size_t k = 0; k < count; ++k) {
                if (std::equal(mask.rowWords.begin(),
                               mask.rowWords.end(),
                               trace.rowWords.begin() +
                                   k * trace.wordsPerMask)) {
                    snapId = static_cast<int64_t>(k);
                    break;
                }
            }
            if (snapId < 0) {
                snapId = static_cast<int64_t>(count);
                trace.rowWords.insert(trace.rowWords.end(),
                                      mask.rowWords.begin(),
                                      mask.rowWords.end());
                trace.rowMaskFull.push_back(
                    std::all_of(mask.rowWords.begin(),
                                mask.rowWords.end(),
                                [](uint64_t w) { return w == ~0ull; })
                        ? 1
                        : 0);
                trace.rowMaskBlocks.push_back(
                    MaskBlocks::of(mask.rowWords));
            }
            snapCurrent = true;
        }
        return static_cast<uint32_t>(snapId);
    };

    // Index of the trailing op iff it is a fusable (un-fused) INIT1
    // LogicH; any other emission clears it. Intervening mask ops are
    // fine: fusion compares the ops' effective mask snapshots.
    int64_t lastInit = -1;

    uint32_t lo = UINT32_MAX, hi = 0;
    const auto emit = [&](const TraceOp &t) {
        lo = std::min(lo, t.xb.start);
        hi = std::max(hi, t.xb.stop + 1);
        trace.ops.push_back(t);
    };

    for (size_t i = 0; i < n; ++i) {
        const MicroOp op = MicroOp::decode(ops[i]);
        switch (op.type) {
          case OpType::CrossbarMask:
            op.range.validate(geo.numCrossbars, "crossbar");
            mask.xb = op.range;
            stats.record(OpClass::CrossbarMask);
            break;
          case OpType::RowMask:
            op.range.validate(geo.rows, "row");
            mask.setRow(op.range, geo.rows);
            stats.record(OpClass::RowMask);
            snapCurrent = false;  // next work op re-resolves by content
            break;
          case OpType::Write: {
            fatalIf(op.index >= geo.slots(),
                    "write: slot index out of range");
            stats.record(OpClass::Write);
            TraceOp t;
            t.type = OpType::Write;
            t.index = op.index;
            t.value = op.value;
            t.rowMask = rowSnapshot();
            t.xb = mask.xb;
            emit(t);
            lastInit = -1;
            break;
          }
          case OpType::LogicH: {
            stats.record(OpClass::LogicH);
            if (op.gate == Gate::Nor || op.gate == Gate::Not)
                ++stats.logicGates;
            else
                ++stats.logicInits;
            TraceOp t;
            t.type = OpType::LogicH;
            t.hg = &table.intern(ops[i], op);
            t.rowMask = rowSnapshot();
            t.xb = mask.xb;
            if ((op.gate == Gate::Nor || op.gate == Gate::Not) &&
                lastInit >= 0) {
                const TraceOp &init = trace.ops[lastInit];
                if (init.xb == t.xb && init.rowMask == t.rowMask &&
                    table.fusable(*init.hg, *t.hg)) {
                    trace.ops.pop_back();
                    t.fusedInit = true;
                }
            }
            emit(t);
            lastInit = (op.gate == Gate::Init1 && !t.fusedInit)
                           ? static_cast<int64_t>(trace.ops.size()) - 1
                           : -1;
            break;
          }
          case OpType::LogicV: {
            fatalIf(op.index >= geo.slots(),
                    "logicV: slot index out of range");
            fatalIf(op.rowIn >= geo.rows || op.rowOut >= geo.rows,
                    "logicV: row out of range");
            panicIf(op.gate == Gate::Nor,
                    "logicV: NOR is not supported vertically");
            stats.record(OpClass::LogicV);
            if (op.gate == Gate::Not)
                ++stats.logicGates;
            else
                ++stats.logicInits;
            TraceOp t;
            t.type = OpType::LogicV;
            t.gate = op.gate;
            t.rowIn = op.rowIn;
            t.rowOut = op.rowOut;
            t.index = op.index;
            t.xb = mask.xb;
            emit(t);
            lastInit = -1;
            break;
          }
          default:
            panic("segment trace: barrier op inside a segment");
        }
    }
    if (!trace.ops.empty()) {
        trace.xbLo = lo;
        trace.xbHi = hi;
    }
}

} // namespace pypim
