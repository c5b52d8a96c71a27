#include "sim/shard_worker.hpp"

#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "sim/batch_trace.hpp"
#include "sim/bulk_io.hpp"
#include "sim/crossbar.hpp"
#include "sim/fault.hpp"
#include "sim/half_gates_table.hpp"
#include "sim/serialize.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_wire.hpp"
#include "sim/transport.hpp"

namespace pypim
{

namespace
{

/** Map the in-flight exception to its wire kind (most derived first). */
uint8_t
classifyCurrent(std::string &msg)
{
    try {
        throw;
    } catch (const StateCorruption &e) {
        msg = e.what();
        return kErrCorruption;
    } catch (const InjectedFault &e) {
        msg = e.what();
        return kErrInjected;
    } catch (const DeviceFault &e) {
        msg = e.what();
        return kErrFault;
    } catch (const InternalError &e) {
        msg = e.what();
        return kErrInternal;
    } catch (const std::exception &e) {
        msg = e.what();
        return kErrUser;
    } catch (...) {
        msg = "unknown worker exception";
        return kErrInternal;
    }
}

bool
sameGeometry(const Geometry &a, const Geometry &b)
{
    return a.rows == b.rows && a.cols == b.cols &&
           a.partitions == b.partitions && a.wordBits == b.wordBits &&
           a.numCrossbars == b.numCrossbars &&
           a.userRegs == b.userRegs && a.clockHz == b.clockHz;
}

/** Everything one worker process owns. */
struct WorkerContext
{
    WorkerContext(const Geometry &geo, const EngineConfig &sub,
                  uint32_t sliceLo, uint32_t sliceCount,
                  uint32_t deviceIndex)
        : geo(geo), halfGates(std::make_shared<HalfGatesTable>(geo)),
          sim(geo, sub, sliceLo, sliceCount, halfGates),
          sliceLo(sliceLo), sliceCount(sliceCount)
    {
        // Mirror the in-process group's per-sub-device wiring: the
        // injector keys on (deviceIndex, slice) so the socket fleet
        // sees the same deterministic fault schedule.
        if (!sub.faults.empty()) {
            const FaultSpec spec = FaultSpec::parse(sub.faults);
            auto i = std::make_shared<FaultInjector>(
                spec, deviceIndex, sliceLo, sliceCount, geo);
            if (i->active()) {
                sim.setFaultInjector(i);
                injector = std::move(i);
            }
        }
        if (sub.verifyState)
            sim.setVerifyState(true);
    }

    Geometry geo;
    /** LogicH expansions of this worker's submits and trace installs
     *  (both run on the message loop's thread). */
    std::shared_ptr<HalfGatesTable> halfGates;
    Simulator sim;
    uint32_t sliceLo;
    uint32_t sliceCount;
    std::shared_ptr<FaultInjector> injector;
    /** Content-addressed trace cache: each signature installed once. */
    std::unordered_map<uint64_t, std::shared_ptr<const BatchTrace>>
        traces;
};

// --- async handlers (no reply; errors go sticky) -----------------------

void
handleSubmit(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const uint64_t n = r.u64();
    fatalIf(n * 8 != r.remaining(), "submit: op count mismatch");
    std::vector<Word> ops(static_cast<size_t>(n));
    for (Word &op : ops)
        op = r.u64();
    ctx.sim.submitBatch(ops.data(), ops.size());
}

void
handleTraceInstall(WorkerContext &ctx, const WireFrame &f)
{
    auto trace = decodeTraceWire(f.payload.data(), f.payload.size(),
                                 ctx.halfGates, ctx.sim.htree());
    ctx.traces[trace->wireSig] = std::move(trace);
}

void
handleTraceReplay(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const uint64_t sig = r.u64();
    r.expectEnd("trace replay");
    const auto it = ctx.traces.find(sig);
    panicIf(it == ctx.traces.end(),
            "trace replay: signature never installed in this worker");
    ctx.sim.submitTrace(it->second);
}

void
handleCellWrite(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i) {
        const uint32_t xb = r.u32();
        const uint32_t slot = r.u32();
        const uint32_t value = r.u32();
        const uint32_t row = r.u32();
        ctx.sim.crossbar(xb).writeRow(slot, value, row);
    }
    r.expectEnd("cell write");
}

// --- sync handlers (build the reply payload; errors reply kMsgErr) -----

std::vector<uint8_t>
handleFlush(WorkerContext &ctx)
{
    ctx.sim.flush();
    return {};
}

std::vector<uint8_t>
handleRead(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const Word op = r.u64();
    r.expectEnd("read");
    ByteWriter w;
    w.u32(ctx.sim.performRead(op));
    return w.take();
}

std::vector<uint8_t>
handleBulkRead(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const BulkIoSpec spec = readBulkSpec(r);
    r.expectEnd("bulk read");
    // Elements outside the owned slice stay zero; the host ORs the
    // per-worker buffers together.
    std::vector<uint32_t> values(static_cast<size_t>(spec.count), 0);
    BulkIoTelemetry tel;
    ctx.sim.readBulk(spec, values.data(), tel);
    ByteWriter w;
    w.u64(spec.count);
    for (uint32_t v : values)
        w.u32(v);
    w.u64(tel.wordsTransposed);
    w.u64(tel.drains);
    return w.take();
}

std::vector<uint8_t>
handleBulkWrite(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const BulkIoSpec spec = readBulkSpec(r);
    std::vector<uint32_t> values(static_cast<size_t>(spec.count));
    for (uint32_t &v : values)
        v = r.u32();
    r.expectEnd("bulk write");
    BulkIoTelemetry tel;
    ctx.sim.writeBulk(spec, values.data(), tel);
    ByteWriter w;
    w.u64(tel.wordsTransposed);
    w.u64(tel.drains);
    return w.take();
}

std::vector<uint8_t>
handleCellRead(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const uint32_t n = r.u32();
    struct Addr
    {
        uint32_t xb, slot, row;
    };
    std::vector<Addr> addrs(n);
    for (Addr &a : addrs) {
        a.xb = r.u32();
        a.slot = r.u32();
        a.row = r.u32();
    }
    r.expectEnd("cell read");
    ByteWriter w;
    w.u32(n);
    for (const Addr &a : addrs)
        w.u32(ctx.sim.crossbar(a.xb).read(a.slot, a.row));
    return w.take();
}

std::vector<uint8_t>
handleStats(WorkerContext &ctx)
{
    const Stats &s = ctx.sim.stats();  // drains the pipeline
    ByteWriter w;
    writeStats(w, s);
    writeRange(w, ctx.sim.crossbarMask());
    writeRange(w, ctx.sim.rowMask());
    w.u64(ctx.injector ? ctx.injector->injected() : 0);
    return w.take();
}

std::vector<uint8_t>
handleStateFetch(WorkerContext &ctx)
{
    (void)ctx.sim.stats();  // drain so the image reflects every submit
    const Simulator &cs = ctx.sim;
    std::vector<CrossbarImage> images;
    for (uint32_t i = 0; i < ctx.sliceCount; ++i) {
        const uint32_t xb = ctx.sliceLo + i;
        const Crossbar::Snapshot snap = cs.crossbar(xb).snapshot();
        CrossbarImage ci;
        ci.xb = xb;
        snap.forEachNonZeroBlock([&](uint32_t col, uint32_t b,
                                     const uint64_t *words, uint32_t n) {
            ci.blocks.push_back(BlockRecord{
                col, b, std::vector<uint64_t>(words, words + n)});
        });
        if (!ci.blocks.empty())
            images.push_back(std::move(ci));
    }
    ByteWriter w;
    writeRange(w, ctx.sim.crossbarMask());
    writeRange(w, ctx.sim.rowMask());
    writeStats(w, cs.stats());
    w.u32(static_cast<uint32_t>(images.size()));
    for (const CrossbarImage &ci : images) {
        w.u32(ci.xb);
        w.u32(static_cast<uint32_t>(ci.blocks.size()));
        for (const BlockRecord &rec : ci.blocks) {
            w.u32(rec.col);
            w.u32(rec.block);
            w.u32(static_cast<uint32_t>(rec.words.size()));
            for (uint64_t word : rec.words)
                w.u64(word);
        }
    }
    return w.take();
}

std::vector<uint8_t>
handleStateRestore(WorkerContext &ctx, const WireFrame &f)
{
    const CheckpointImage img = decodeCheckpoint(f.payload);
    fatalIf(!sameGeometry(img.geo, ctx.geo),
            "state restore: image geometry does not match this worker");
    // The worker-side mirror of restoreGroupImage, clipped to the
    // owned slice: clear any pipeline error, rewrite the architectural
    // state, rebuild owned crossbars from the canonical records, and
    // re-bless the checksums.
    ctx.sim.clearPipelineError();
    ctx.sim.restoreArchState(img.maskXb, img.maskRow, img.archStats);
    for (uint32_t i = 0; i < ctx.sliceCount; ++i)
        ctx.sim.crossbar(ctx.sliceLo + i).resetState();
    for (const CrossbarImage &ci : img.crossbars) {
        if (!ctx.sim.ownsCrossbar(ci.xb))
            continue;
        Crossbar &cxb = ctx.sim.crossbar(ci.xb);
        for (const BlockRecord &rec : ci.blocks)
            cxb.loadBlock(rec.col, rec.block, rec.words.data(),
                          static_cast<uint32_t>(rec.words.size()));
    }
    ctx.sim.rebaselineChecksums();
    return {};
}

std::vector<uint8_t>
handleGauges(WorkerContext &ctx)
{
    const StorageGauges g = ctx.sim.storageGauges();
    ByteWriter w;
    w.u64(g.blocksTotal);
    w.u64(g.blocksPresent);
    w.u64(g.blocksElided);
    w.u64(g.cowShared);
    w.u64(g.runColumns);
    w.u64(g.residentBytes);
    return w.take();
}

std::vector<uint8_t>
handleCompact(WorkerContext &ctx)
{
    ByteWriter w;
    w.u64(ctx.sim.compactStorage());
    return w.take();
}

void
workerLoop(int fd, WorkerContext &ctx)
{
    bool sticky = false;
    uint8_t stickyKind = kErrUser;
    std::string stickyMsg;

    for (;;) {
        WireFrame f;
        try {
            f = recvFrame(fd);
        } catch (...) {
            // EOF or stream damage: nothing on this socket can be
            // trusted any more. Exit; the host sees a broken pipe.
            return;
        }

        switch (f.type) {
          // --- asynchronous: no reply, failures go sticky ------------
          case kMsgShutdown:
            return;
          case kMsgSuppress:
            // Applied even while sticky: recovery opens the
            // suppression window BEFORE it restores state.
            try {
                ByteReader r(f.payload);
                const bool on = r.u8() != 0;
                r.expectEnd("suppress");
                if (ctx.injector)
                    ctx.injector->setSuppressed(on);
            } catch (...) {
                if (!sticky) {
                    sticky = true;
                    stickyKind = classifyCurrent(stickyMsg);
                }
            }
            continue;
          case kMsgTraceInstall:
            // Applied even while sticky: pure cache data, and the host
            // tracks which signatures this worker holds.
            try {
                handleTraceInstall(ctx, f);
            } catch (...) {
                if (!sticky) {
                    sticky = true;
                    stickyKind = classifyCurrent(stickyMsg);
                }
            }
            continue;
          case kMsgSubmit:
          case kMsgTraceReplay:
          case kMsgCellWrite:
          case kMsgClearStats:
            if (sticky)
                continue;  // hold diverged state for the restore
            try {
                if (f.type == kMsgSubmit)
                    handleSubmit(ctx, f);
                else if (f.type == kMsgTraceReplay)
                    handleTraceReplay(ctx, f);
                else if (f.type == kMsgCellWrite)
                    handleCellWrite(ctx, f);
                else
                    ctx.sim.stats().clear();
            } catch (...) {
                sticky = true;
                stickyKind = classifyCurrent(stickyMsg);
            }
            continue;
          default:
            break;
        }

        // --- synchronous: reply in kind, or kMsgErr ------------------
        if (f.type == kMsgStateRestore) {
            // The recovery message: drop the sticky error and let the
            // restore rebuild the slice from the image.
            sticky = false;
        } else if (sticky) {
            try {
                const std::vector<uint8_t> err =
                    encodeWireError(stickyKind, stickyMsg);
                sendFrame(fd, kMsgErr, err.data(), err.size());
            } catch (...) {
                return;
            }
            continue;
        }

        std::vector<uint8_t> reply;
        bool ok = true;
        try {
            switch (f.type) {
              case kMsgFlush:
                reply = handleFlush(ctx);
                break;
              case kMsgRead:
                reply = handleRead(ctx, f);
                break;
              case kMsgBulkRead:
                reply = handleBulkRead(ctx, f);
                break;
              case kMsgBulkWrite:
                reply = handleBulkWrite(ctx, f);
                break;
              case kMsgCellRead:
                reply = handleCellRead(ctx, f);
                break;
              case kMsgStats:
                reply = handleStats(ctx);
                break;
              case kMsgStateFetch:
                reply = handleStateFetch(ctx);
                break;
              case kMsgStateRestore:
                reply = handleStateRestore(ctx, f);
                break;
              case kMsgGauges:
                reply = handleGauges(ctx);
                break;
              case kMsgCompact:
                reply = handleCompact(ctx);
                break;
              default:
                panic("shard worker: unhandled message type " +
                      std::to_string(f.type));
            }
        } catch (...) {
            ok = false;
            std::string msg;
            const uint8_t kind = classifyCurrent(msg);
            // Only the fault family poisons the worker (plus a failed
            // restore, which leaves half-rebuilt state): a plain user
            // Error leaves it serviceable, like the in-process sink.
            if (kind == kErrFault || kind == kErrCorruption ||
                kind == kErrInjected || f.type == kMsgStateRestore) {
                sticky = true;
                stickyKind = kind;
                stickyMsg = msg;
            }
            reply = encodeWireError(kind, msg);
        }
        try {
            sendFrame(fd, ok ? f.type : kMsgErr, reply.data(),
                      reply.size());
        } catch (...) {
            return;
        }
    }
}

} // namespace

void
runShardWorker(int fd, const Geometry &geo, const EngineConfig &sub,
               uint32_t sliceLo, uint32_t sliceCount,
               uint32_t deviceIndex) noexcept
{
    try {
        WorkerContext ctx(geo, sub, sliceLo, sliceCount, deviceIndex);
        workerLoop(fd, ctx);
    } catch (...) {
        // Construction failed: die silently; the host's next message
        // hits the broken pipe and surfaces WorkerDied.
    }
    ::close(fd);
}

} // namespace pypim
