#include "sim/engine.hpp"

#include <string>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "sim/batch_trace.hpp"
#include "sim/bulk_io.hpp"
#include "sim/replay_program.hpp"

namespace pypim
{

namespace
{

/** More workers than OWNED crossbars can never help: a sub-device
 *  engine shards only its slice. */
uint32_t
clampWorkers(uint32_t threads, size_t owned)
{
    return std::min(std::max(1u, threads),
                    std::max(1u, static_cast<uint32_t>(owned)));
}

/** Stagger sibling sub-device pools onto disjoint cores: sub-device
 *  d (slice index xbBase / sliceSize) starts after the d * width
 *  cores of the pools before it. 0 for a monolithic engine. */
uint32_t
pinBaseOf(uint32_t xbBase, size_t owned, uint32_t width)
{
    return owned == 0
               ? 0
               : xbBase / static_cast<uint32_t>(owned) * width;
}

std::atomic<EngineFactory> testEngineFactory{nullptr};

} // namespace

ExecutionEngine::ExecutionEngine(const Geometry &geo,
                                 std::vector<Crossbar> &xbs,
                                 uint32_t xbBase, const HTree &htree,
                                 MaskState &mask, Stats &stats,
                                 HalfGatesTable &halfGates,
                                 uint32_t threads, bool pinWorkers)
    : geo_(geo), xbs_(xbs), xbBase_(xbBase), htree_(htree),
      mask_(mask), stats_(stats), halfGates_(halfGates),
      pool_(clampWorkers(threads, xbs.size()), pinWorkers,
            pinBaseOf(xbBase, xbs.size(),
                      clampWorkers(threads, xbs.size()))),
      work_(pool_.size())
{
}

void
ExecutionEngine::serialPerform(const MicroOp &op)
{
    if (op.type == OpType::Read) {
        // A read issued through the data-less path: execute it for
        // its cycle cost and drop the response.
        executeRead(op);
        return;
    }
    panicIf(op.type != OpType::Move,
            "serialPerform: not a barrier op");
    const int64_t dist = validateMove(op, mask_.xb, geo_);
    applyMove(op, mask_.xb);
    stats_.record(OpClass::Move, htree_.moveCycles(mask_.xb, dist));
}

void
ExecutionEngine::execute(const Word *ops, size_t n)
{
    size_t i = 0;
    while (i < n) {
        if (isBarrierOp(enc::peekType(ops[i]))) {
            serialPerform(MicroOp::decode(ops[i]));
            ++i;
            continue;
        }
        size_t j = i + 1;
        while (j < n && !isBarrierOp(enc::peekType(ops[j])))
            ++j;
        buildSegmentTrace(ops + i, j - i, halfGates_, mask_, stats_,
                          trace_);
        replayTrace(trace_);
        i = j;
    }
}

void
validateRead(const MicroOp &op, const Range &xb, const Range &row,
             const Geometry &geo)
{
    panicIf(op.type != OpType::Read, "read: wrong op type");
    fatalIf(op.index >= geo.slots(), "read: slot index out of range");
    fatalIf(xb.count() != 1, [&] {
        return "read: crossbar mask must select exactly one crossbar "
               "(paper III-C), selects " +
               std::to_string(xb.count());
    });
    fatalIf(row.count() != 1, [&] {
        return "read: row mask must select exactly one row (paper "
               "III-C), selects " +
               std::to_string(row.count());
    });
}

int64_t
validateMove(const MicroOp &op, const Range &xb, const Geometry &geo)
{
    fatalIf(!isPow4(xb.step),
            "move: crossbar mask step must be a power of four "
            "(paper III-F)");
    fatalIf(op.srcIdx >= geo.slots() || op.dstIdx >= geo.slots(),
            "move: slot index out of range");
    fatalIf(op.srcRow >= geo.rows || op.dstRow >= geo.rows,
            "move: row out of range");
    const int64_t dist = static_cast<int64_t>(op.dstStart) -
                         static_cast<int64_t>(xb.start);
    // The destination set is the source Range shifted by dist, so the
    // endpoints bound every element.
    const int64_t lastDst = static_cast<int64_t>(xb.stop) + dist;
    fatalIf(lastDst < 0 || lastDst >= geo.numCrossbars,
            "move: destination crossbar out of range");
    return dist;
}

uint32_t
ExecutionEngine::executeRead(const MicroOp &op)
{
    validateRead(op, mask_.xb, mask_.row, geo_);
    stats_.record(OpClass::Read);
    // A sub-device engine validates and counts reads outside its
    // slice (keeping the architectural stats replicated across
    // sub-devices) but has no data for them; the device group routes
    // the response from the owning sub-device.
    if (!owns(mask_.xb.start))
        return 0;
    return xbAt(mask_.xb.start).read(op.index, mask_.row.start);
}

uint64_t
ExecutionEngine::executeReadBulk(const BulkIoSpec &spec, uint32_t *out)
{
    fatalIf(spec.slot >= geo_.slots(),
            "bulk read: slot index out of range");
    uint64_t transposed = 0;
    uint64_t i = 0;
    while (i < spec.count) {
        const uint64_t s = spec.rowStart + i * spec.rowStep;
        const uint32_t g =
            spec.warpStart + static_cast<uint32_t>(s / geo_.rows);
        const uint32_t r0 = static_cast<uint32_t>(s % geo_.rows);
        const uint64_t k = std::min<uint64_t>(
            spec.count - i,
            (geo_.rows - r0 + spec.rowStep - 1) / spec.rowStep);
        fatalIf(g >= geo_.numCrossbars,
                "bulk read: crossbar out of range");
        if (owns(g)) {
            Crossbar &xb = xbAt(g);
            if (spec.rowStep == 1) {
                transposed += xb.gatherRows(
                    spec.slot, r0, static_cast<uint32_t>(k), out + i);
            } else {
                for (uint64_t e = 0; e < k; ++e)
                    out[i + e] = xb.read(
                        spec.slot,
                        r0 + static_cast<uint32_t>(e * spec.rowStep));
            }
        }
        i += k;
    }
    return transposed;
}

uint64_t
ExecutionEngine::applyWriteBulk(const BulkIoSpec &spec,
                                const uint32_t *values)
{
    fatalIf(spec.slot >= geo_.slots(),
            "bulk write: slot index out of range");
    uint64_t transposed = 0;
    uint64_t i = 0;
    while (i < spec.count) {
        const uint64_t s = spec.rowStart + i * spec.rowStep;
        const uint32_t g =
            spec.warpStart + static_cast<uint32_t>(s / geo_.rows);
        const uint32_t r0 = static_cast<uint32_t>(s % geo_.rows);
        const uint64_t k = std::min<uint64_t>(
            spec.count - i,
            (geo_.rows - r0 + spec.rowStep - 1) / spec.rowStep);
        fatalIf(g >= geo_.numCrossbars,
                "bulk write: crossbar out of range");
        if (owns(g)) {
            Crossbar &xb = xbAt(g);
            if (spec.rowStep == 1) {
                transposed += xb.scatterRows(
                    spec.slot, r0, static_cast<uint32_t>(k),
                    values + i);
            } else {
                for (uint64_t e = 0; e < k; ++e)
                    xb.writeRow(
                        spec.slot, values[i + e],
                        r0 + static_cast<uint32_t>(e * spec.rowStep));
            }
        }
        i += k;
    }
    return transposed;
}

template <typename Fn>
void
ExecutionEngine::replayHull(uint32_t lo, uint32_t hi, Fn &&fn)
{
    lo = std::max(lo, sliceLo());
    hi = std::min(hi, sliceHi());
    if (lo >= hi)
        return;  // hull entirely outside this sub-device's slice
    const uint32_t workers = pool_.size();
    if (workers == 1 || hi - lo <= 1) {
        for (uint32_t xb = lo; xb < hi; ++xb)
            fn(xbAt(xb), xb, &work_[0]);
        return;
    }
    // Work-stealing schedule over the crossbar hull: chunks are
    // claimed from a shared atomic counter instead of fixed contiguous
    // per-worker blocks, so a strided crossbar mask (which leaves some
    // blocks mostly masked-out) cannot load-imbalance the workers. The
    // chunk is kept a few crossbars wide: small enough that expensive
    // crossbars spread over the pool, large enough to amortise the
    // atomic claim and preserve block locality.
    const uint32_t chunk = std::max(1u, (hi - lo) / (workers * 8));
    next_.store(lo, std::memory_order_relaxed);
    pool_.parallelFor(workers, [&](uint32_t w) {
        // Accumulate the applied-work diagnostics on the stack and
        // flush once per hull: work_ entries are adjacent in memory,
        // and per-application increments there would ping-pong cache
        // lines between workers.
        Stats local;
        for (;;) {
            const uint32_t start =
                next_.fetch_add(chunk, std::memory_order_relaxed);
            if (start >= hi)
                break;
            const uint32_t end = std::min(start + chunk, hi);
            for (uint32_t xb = start; xb < end; ++xb)
                fn(xbAt(xb), xb, &local);
        }
        work_[w] += local;
    });
}

void
ExecutionEngine::replayTrace(const SegmentTrace &trace)
{
    if (trace.empty())
        return;  // mask-only segment: fully absorbed by the pre-pass
    replayHull(trace.xbLo, trace.xbHi,
               [&](Crossbar &x, uint32_t xb, Stats *work) {
                   x.replaySegment(trace, xb, work);
               });
}

void
ExecutionEngine::replayProgram(const ReplayProgram &prog)
{
    if (prog.empty())
        return;
    replayHull(prog.xbLo, prog.xbHi,
               [&](Crossbar &x, uint32_t xb, Stats *work) {
                   x.replayProgram(prog, xb, work);
               });
}

void
ExecutionEngine::replayBatch(const BatchTrace &batch)
{
    for (const BatchTrace::Item &item : batch.items) {
        if (item.kind == BatchTrace::Item::Kind::Segment) {
            if (const ReplayProgram *p = batch.program(item.seg))
                replayProgram(*p);
            else
                replayTrace(batch.segments[item.seg]);
        } else {
            applyMove(item.op, item.xb);
        }
    }
}

void
ExecutionEngine::applyMove(const MicroOp &op, const Range &xb)
{
    const int64_t dist = static_cast<int64_t>(op.dstStart) -
                         static_cast<int64_t>(xb.start);
    // Read-all-then-write-all semantics: overlapping source and
    // destination sets (shift chains) behave as a parallel transfer.
    // A sub-device engine applies only the transfers with BOTH
    // endpoints in its slice; boundary-crossing transfers are the
    // device group's explicit exchange step (sim/device_group.hpp),
    // which stages its reads before this runs and lands its writes
    // after. The staging buffers are reused members: clear() keeps
    // capacity, so steady-state moves never allocate.
    moveValues_.clear();
    moveDsts_.clear();
    forEachOwned(xb, [&](uint32_t src) {
        const int64_t dst = static_cast<int64_t>(src) + dist;
        if (dst < sliceLo() || dst >= sliceHi())
            return;
        moveValues_.push_back(xbAt(src).read(op.srcIdx, op.srcRow));
        moveDsts_.push_back(static_cast<uint32_t>(dst));
    });
    for (size_t i = 0; i < moveDsts_.size(); ++i)
        xbAt(moveDsts_[i]).writeRow(op.dstIdx, moveValues_[i],
                                    op.dstRow);
}

std::unique_ptr<ExecutionEngine>
makeEngine(const EngineConfig &cfg, const Geometry &geo,
           std::vector<Crossbar> &xbs, uint32_t xbBase,
           const HTree &htree, MaskState &mask, Stats &stats,
           HalfGatesTable &halfGates)
{
    if (const EngineFactory f = testEngineFactory.load())
        return f(cfg, geo, xbs, xbBase, htree, mask, stats, halfGates);
    return std::make_unique<ExecutionEngine>(
        geo, xbs, xbBase, htree, mask, stats, halfGates,
        cfg.resolvedThreads(), cfg.affinity);
}

void
setEngineFactoryForTesting(EngineFactory f)
{
    testEngineFactory.store(f);
}

} // namespace pypim
