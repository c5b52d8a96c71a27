#include "sim/transport.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "sim/batch_trace.hpp"
#include "sim/bulk_io.hpp"
#include "sim/crossbar.hpp"
#include "sim/shard_worker.hpp"
#include "sim/trace_wire.hpp"

namespace pypim
{

namespace
{

/** A frame this large means stream damage, not a big message: even a
 *  full checkpoint of a maximal array stays far below 4 GiB. */
constexpr uint64_t kMaxPayload = 1ull << 32;

/** Full write over a stream socket; EINTR-safe, SIGPIPE-free (the
 *  host must see a dead worker as EPIPE, not a process kill). */
bool
writeFull(int fd, const uint8_t *p, size_t n)
{
    while (n) {
        const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += k;
        n -= static_cast<size_t>(k);
    }
    return true;
}

/** Full read; false on EOF or error (the broken-pipe detection). */
bool
readFull(int fd, uint8_t *p, size_t n)
{
    while (n) {
        const ssize_t k = ::recv(fd, p, n, 0);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (k == 0)
            return false;
        p += k;
        n -= static_cast<size_t>(k);
    }
    return true;
}

bool
knownType(uint32_t type)
{
    return (type >= kMsgSubmit && type <= kMsgShutdown) ||
           type == kMsgErr;
}

std::string
errnoName()
{
    return std::string(std::strerror(errno));
}

} // namespace

// --- frame codec -------------------------------------------------------

std::vector<uint8_t>
encodeFrame(uint32_t type, const uint8_t *payload, size_t n)
{
    panicIf(!knownType(type), [&] {
        return "wire frame: encoding unknown message type " +
               std::to_string(type);
    });
    ByteWriter w;
    w.u32(kFrameMagic);
    w.u32(kWireVersion);
    w.u32(type);
    w.u64(n);
    // The checksum guards the header prefix as well as the payload: a
    // bit flip in the type or length fields could otherwise land on
    // another valid value and decode silently.
    w.u32(crc32(w.data().data(), w.data().size()) ^ crc32(payload, n));
    if (n)
        w.bytes(payload, n);
    return w.take();
}

WireFrame
decodeFrame(const uint8_t *bytes, size_t n)
{
    fatalIf(n < kFrameHeader, "wire frame: truncated header");
    ByteReader r(bytes, n);
    fatalIf(r.u32() != kFrameMagic,
            "wire frame: bad magic (not a transport frame)");
    const uint32_t version = r.u32();
    fatalIf(version != kWireVersion, [&] {
        return "wire frame: unsupported protocol version " +
               std::to_string(version);
    });
    const uint32_t type = r.u32();
    fatalIf(!knownType(type), [&] {
        return "wire frame: unknown message type " + std::to_string(type);
    });
    const uint64_t len = r.u64();
    const uint32_t crc = r.u32();
    fatalIf(len != r.remaining(), [&] {
        return "wire frame: payload length mismatch (header says " +
               std::to_string(len) + ", frame carries " +
               std::to_string(r.remaining()) + ")";
    });
    WireFrame f;
    f.type = type;
    f.payload.assign(bytes + kFrameHeader, bytes + n);
    const uint32_t want = crc32(bytes, kFrameHeader - 4) ^
                          crc32(f.payload.data(), f.payload.size());
    fatalIf(want != crc,
            "wire frame: CRC mismatch (frame damaged in transit)");
    return f;
}

std::vector<uint8_t>
encodeWireError(uint8_t kind, const std::string &message)
{
    ByteWriter w;
    w.u8(kind);
    w.u64(message.size());
    w.bytes(reinterpret_cast<const uint8_t *>(message.data()),
            message.size());
    return w.take();
}

void
rethrowWireError(const std::vector<uint8_t> &payload)
{
    ByteReader r(payload);
    const uint8_t kind = r.u8();
    const uint64_t len = r.u64();
    fatalIf(len != r.remaining(), "wire error: malformed payload");
    std::string msg(static_cast<size_t>(len), '\0');
    if (len)
        r.bytes(reinterpret_cast<uint8_t *>(&msg[0]),
                static_cast<size_t>(len));
    switch (kind) {
      case kErrInternal:
        throw InternalError(msg);
      case kErrFault:
        throw DeviceFault(msg);
      case kErrCorruption:
        throw StateCorruption(msg);
      case kErrInjected:
        throw InjectedFault(msg);
      case kErrUser:
      default:
        throw Error(msg);
    }
}

void
sendFrame(int fd, uint32_t type, const uint8_t *payload, size_t n)
{
    const std::vector<uint8_t> frame = encodeFrame(type, payload, n);
    fatalIf(!writeFull(fd, frame.data(), frame.size()),
            "wire send: " + errnoName());
}

WireFrame
recvFrame(int fd)
{
    uint8_t hdr[kFrameHeader];
    fatalIf(!readFull(fd, hdr, sizeof(hdr)),
            "wire recv: connection closed");
    uint64_t len = 0;
    for (int i = 0; i < 8; ++i)
        len |= static_cast<uint64_t>(hdr[12 + i]) << (8 * i);
    fatalIf(len > kMaxPayload, [&] {
        return "wire recv: implausible frame length " +
               std::to_string(len);
    });
    std::vector<uint8_t> buf(kFrameHeader + static_cast<size_t>(len));
    std::memcpy(buf.data(), hdr, kFrameHeader);
    if (len)
        fatalIf(!readFull(fd, buf.data() + kFrameHeader,
                          static_cast<size_t>(len)),
                "wire recv: connection closed mid-frame");
    return decodeFrame(buf.data(), buf.size());
}

// --- bulk spec codec ---------------------------------------------------

void
writeBulkSpec(ByteWriter &w, const BulkIoSpec &spec)
{
    w.u32(spec.slot);
    w.u32(spec.warpStart);
    w.u64(spec.rowStart);
    w.u64(spec.rowStep);
    w.u64(spec.count);
    writeStats(w, spec.stats);
    writeRange(w, spec.finalXb);
    writeRange(w, spec.finalRow);
}

BulkIoSpec
readBulkSpec(ByteReader &r)
{
    BulkIoSpec spec;
    spec.slot = r.u32();
    spec.warpStart = r.u32();
    spec.rowStart = r.u64();
    spec.rowStep = r.u64();
    spec.count = r.u64();
    spec.stats = readStats(r);
    spec.finalXb = readRange(r);
    spec.finalRow = readRange(r);
    return spec;
}

// --- SocketTransport ---------------------------------------------------

SocketTransport::SocketTransport(const Geometry &geo,
                                 const EngineConfig &sub,
                                 uint32_t devices, uint32_t perDevice)
    : geo_(geo), sub_(sub), perDevice_(perDevice)
{
    panicIf(devices == 0 || perDevice == 0,
            "SocketTransport: empty fleet");
    workers_.resize(devices);
    for (uint32_t d = 0; d < devices; ++d)
        spawn(d);
}

SocketTransport::~SocketTransport()
{
    for (Worker &w : workers_) {
        if (w.fd >= 0) {
            if (w.alive) {
                try {
                    sendFrame(w.fd, kMsgShutdown, nullptr, 0);
                } catch (...) {
                    // Best effort; the close below unblocks the worker.
                }
            }
            ::close(w.fd);
            w.fd = -1;
        }
        if (w.pid > 0) {
            int status = 0;
            ::waitpid(static_cast<pid_t>(w.pid), &status, 0);
            w.pid = -1;
        }
    }
}

void
SocketTransport::spawn(uint32_t d)
{
    int sv[2];
    fatalIf(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0,
            "shard transport: socketpair failed: " + errnoName());
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        fatal("shard transport: fork failed: " + errnoName());
    }
    if (pid == 0) {
        // Worker process. Close the host end of this channel and every
        // OTHER worker's host-side fd inherited across the fork, so a
        // sibling's death surfaces as EOF to the host alone.
        ::close(sv[0]);
        for (const Worker &w : workers_)
            if (w.fd >= 0)
                ::close(w.fd);
        runShardWorker(sv[1], geo_, sub_, d * perDevice_, perDevice_, d);
        ::_exit(0);
    }
    ::close(sv[1]);
    Worker &w = workers_[d];
    w.fd = sv[0];
    w.pid = pid;
    w.alive = true;
    w.installed.clear();
    // A respawned worker starts with the injector unsuppressed;
    // re-apply the fleet's current suppression window.
    if (suppressed_) {
        ByteWriter sw;
        sw.u8(1);
        const std::vector<uint8_t> p = sw.take();
        send(d, kMsgSuppress, p.data(), p.size());
    }
}

void
SocketTransport::died(uint32_t d, const std::string &what)
{
    Worker &w = workers_[d];
    if (w.fd >= 0) {
        ::close(w.fd);
        w.fd = -1;
    }
    w.alive = false;
    w.installed.clear();
    if (w.pid > 0) {
        // Protocol desync can leave the process technically alive;
        // make the reap below unconditional and non-blocking.
        ::kill(static_cast<pid_t>(w.pid), SIGKILL);
        int status = 0;
        ::waitpid(static_cast<pid_t>(w.pid), &status, 0);
        w.pid = -1;
    }
    throw WorkerDied("shard worker " + std::to_string(d) +
                     " died: " + what);
}

void
SocketTransport::send(uint32_t d, uint32_t type, const uint8_t *payload,
                      size_t n)
{
    Worker &w = workers_[d];
    if (!w.alive)
        throw WorkerDied("shard worker " + std::to_string(d) +
                         " is dead (awaiting restore)");
    const std::vector<uint8_t> frame = encodeFrame(type, payload, n);
    if (!writeFull(w.fd, frame.data(), frame.size()))
        died(d, "send failed: " + errnoName());
    telemetry_.bytesTx += frame.size();
}

WireFrame
SocketTransport::recv(uint32_t d)
{
    Worker &w = workers_[d];
    if (!w.alive)
        throw WorkerDied("shard worker " + std::to_string(d) +
                         " is dead (awaiting restore)");
    uint8_t hdr[kFrameHeader];
    if (!readFull(w.fd, hdr, sizeof(hdr)))
        died(d, "connection closed");
    uint64_t len = 0;
    for (int i = 0; i < 8; ++i)
        len |= static_cast<uint64_t>(hdr[12 + i]) << (8 * i);
    if (len > kMaxPayload)
        died(d, "implausible frame length " + std::to_string(len));
    std::vector<uint8_t> buf(kFrameHeader + static_cast<size_t>(len));
    std::memcpy(buf.data(), hdr, kFrameHeader);
    if (len && !readFull(w.fd, buf.data() + kFrameHeader,
                         static_cast<size_t>(len)))
        died(d, "connection closed mid-frame");
    telemetry_.bytesRx += buf.size();
    try {
        return decodeFrame(buf.data(), buf.size());
    } catch (const Error &e) {
        // A reply we cannot trust means the stream is beyond resync.
        died(d, std::string("frame damage: ") + e.what());
    }
}

WireFrame
SocketTransport::roundTrip(uint32_t d, uint32_t type,
                           const uint8_t *payload, size_t n)
{
    send(d, type, payload, n);
    WireFrame reply = recv(d);
    ++telemetry_.roundTrips;
    if (reply.type == kMsgErr)
        rethrowWireError(reply.payload);
    panicIf(reply.type != type, [&] {
        return "shard transport: protocol desync (reply type " +
               std::to_string(reply.type) + " to request " +
               std::to_string(type) + ")";
    });
    return reply;
}

void
SocketTransport::submitAll(const Word *ops, size_t n)
{
    ByteWriter w;
    w.u64(n);
    for (size_t i = 0; i < n; ++i)
        w.u64(ops[i]);
    const std::vector<uint8_t> payload = w.take();
    for (uint32_t d = 0; d < devices(); ++d)
        send(d, kMsgSubmit, payload.data(), payload.size());
}

void
SocketTransport::flushAll()
{
    for (uint32_t d = 0; d < devices(); ++d)
        roundTrip(d, kMsgFlush, nullptr, 0);
}

uint32_t
SocketTransport::readAll(Word op, uint32_t owner)
{
    ByteWriter w;
    w.u64(op);
    const std::vector<uint8_t> payload = w.take();
    uint32_t value = 0;
    for (uint32_t d = 0; d < devices(); ++d) {
        WireFrame reply =
            roundTrip(d, kMsgRead, payload.data(), payload.size());
        ByteReader r(reply.payload);
        const uint32_t v = r.u32();
        r.expectEnd("read reply");
        if (d == owner)
            value = v;
    }
    return value;
}

void
SocketTransport::submitTraceAll(const BatchTrace &trace)
{
    panicIf(trace.wireSig == 0 || trace.sourceOps.empty(),
            "submitTrace: trace carries no wire identity (not built by "
            "this transport's prepareTrace)");
    std::vector<uint8_t> image;  // encoded lazily, at most once per call
    ByteWriter sw;
    sw.u64(trace.wireSig);
    const std::vector<uint8_t> sig = sw.take();
    for (uint32_t d = 0; d < devices(); ++d) {
        Worker &w = workers_[d];
        if (w.installed.count(trace.wireSig)) {
            ++telemetry_.traceHits;
        } else {
            if (image.empty())
                image = encodeTraceWire(trace);
            send(d, kMsgTraceInstall, image.data(), image.size());
            w.installed.insert(trace.wireSig);
            ++telemetry_.traceInstalls;
        }
        // FIFO per socket: the replay may chase the install.
        send(d, kMsgTraceReplay, sig.data(), sig.size());
    }
}

void
SocketTransport::bulkReadAll(const BulkIoSpec &spec, uint32_t *out,
                             BulkIoTelemetry &tel)
{
    ByteWriter w;
    writeBulkSpec(w, spec);
    const std::vector<uint8_t> payload = w.take();
    std::fill(out, out + spec.count, 0u);
    for (uint32_t d = 0; d < devices(); ++d) {
        WireFrame reply =
            roundTrip(d, kMsgBulkRead, payload.data(), payload.size());
        ByteReader r(reply.payload);
        fatalIf(r.u64() != spec.count,
                "bulk read reply: element count mismatch");
        // Each element is owned by exactly one worker; the others left
        // it zero, so OR assembles the full buffer.
        for (uint64_t i = 0; i < spec.count; ++i)
            out[i] |= r.u32();
        tel.wordsTransposed += r.u64();
        tel.drains += r.u64();
        r.expectEnd("bulk read reply");
    }
}

void
SocketTransport::bulkWriteAll(const BulkIoSpec &spec,
                              const uint32_t *values,
                              BulkIoTelemetry &tel)
{
    ByteWriter w;
    writeBulkSpec(w, spec);
    for (uint64_t i = 0; i < spec.count; ++i)
        w.u32(values[i]);
    const std::vector<uint8_t> payload = w.take();
    for (uint32_t d = 0; d < devices(); ++d) {
        WireFrame reply =
            roundTrip(d, kMsgBulkWrite, payload.data(), payload.size());
        ByteReader r(reply.payload);
        tel.wordsTransposed += r.u64();
        tel.drains += r.u64();
        r.expectEnd("bulk write reply");
    }
}

void
SocketTransport::readCells(uint32_t d,
                           const std::vector<CellAddr> &addrs,
                           std::vector<uint32_t> &values)
{
    values.clear();
    if (addrs.empty())
        return;
    ByteWriter w;
    w.u32(static_cast<uint32_t>(addrs.size()));
    for (const CellAddr &a : addrs) {
        w.u32(a.xb);
        w.u32(a.slot);
        w.u32(a.row);
    }
    const std::vector<uint8_t> payload = w.take();
    WireFrame reply =
        roundTrip(d, kMsgCellRead, payload.data(), payload.size());
    ByteReader r(reply.payload);
    fatalIf(r.u32() != addrs.size(), "cell read reply: count mismatch");
    values.resize(addrs.size());
    for (uint32_t &v : values)
        v = r.u32();
    r.expectEnd("cell read reply");
}

void
SocketTransport::writeCells(uint32_t d, const std::vector<CellPut> &puts)
{
    if (puts.empty())
        return;
    ByteWriter w;
    w.u32(static_cast<uint32_t>(puts.size()));
    for (const CellPut &p : puts) {
        w.u32(p.xb);
        w.u32(p.slot);
        w.u32(p.value);
        w.u32(p.row);
    }
    const std::vector<uint8_t> payload = w.take();
    send(d, kMsgCellWrite, payload.data(), payload.size());
}

void
SocketTransport::chargeExchange(uint64_t ns)
{
    ++telemetry_.exchanges;
    telemetry_.exchangeNs += ns;
}

Stats
SocketTransport::fetchStats(uint32_t d, Range *maskXb, Range *maskRow,
                            uint64_t *faultsInjected)
{
    WireFrame reply = roundTrip(d, kMsgStats, nullptr, 0);
    ByteReader r(reply.payload);
    Stats s = readStats(r);
    const Range xb = readRange(r);
    const Range row = readRange(r);
    const uint64_t inj = r.u64();
    r.expectEnd("stats reply");
    if (maskXb)
        *maskXb = xb;
    if (maskRow)
        *maskRow = row;
    if (faultsInjected)
        *faultsInjected = inj;
    return s;
}

void
SocketTransport::clearStatsAll()
{
    for (uint32_t d = 0; d < devices(); ++d)
        send(d, kMsgClearStats, nullptr, 0);
}

uint64_t
SocketTransport::faultsInjectedAll()
{
    uint64_t total = 0;
    for (uint32_t d = 0; d < devices(); ++d) {
        uint64_t inj = 0;
        fetchStats(d, nullptr, nullptr, &inj);
        total += inj;
    }
    return total;
}

StorageGauges
SocketTransport::gaugesAll()
{
    StorageGauges g;
    for (uint32_t d = 0; d < devices(); ++d) {
        WireFrame reply = roundTrip(d, kMsgGauges, nullptr, 0);
        ByteReader r(reply.payload);
        StorageGauges one;
        one.blocksTotal = r.u64();
        one.blocksPresent = r.u64();
        one.blocksElided = r.u64();
        one.cowShared = r.u64();
        one.runColumns = r.u64();
        one.residentBytes = r.u64();
        r.expectEnd("gauges reply");
        g += one;
    }
    return g;
}

uint64_t
SocketTransport::compactAll()
{
    uint64_t total = 0;
    for (uint32_t d = 0; d < devices(); ++d) {
        WireFrame reply = roundTrip(d, kMsgCompact, nullptr, 0);
        ByteReader r(reply.payload);
        total += r.u64();
        r.expectEnd("compact reply");
    }
    return total;
}

void
SocketTransport::suppressFaultsAll(bool on)
{
    suppressed_ = on;
    ByteWriter w;
    w.u8(on ? 1 : 0);
    const std::vector<uint8_t> payload = w.take();
    for (uint32_t d = 0; d < devices(); ++d)
        if (workers_[d].alive)
            send(d, kMsgSuppress, payload.data(), payload.size());
}

CheckpointImage
SocketTransport::fetchImage()
{
    CheckpointImage img;
    img.geo = geo_;
    img.storage = sub_.storage;
    img.deviceCount = devices();
    for (uint32_t d = 0; d < devices(); ++d) {
        WireFrame reply = roundTrip(d, kMsgStateFetch, nullptr, 0);
        ByteReader r(reply.payload);
        const Range xb = readRange(r);
        const Range row = readRange(r);
        const Stats s = readStats(r);
        const uint32_t nXb = r.u32();
        for (uint32_t i = 0; i < nXb; ++i) {
            CrossbarImage ci;
            ci.xb = r.u32();
            const uint32_t nBlocks = r.u32();
            ci.blocks.reserve(nBlocks);
            for (uint32_t b = 0; b < nBlocks; ++b) {
                BlockRecord rec;
                rec.col = r.u32();
                rec.block = r.u32();
                const uint32_t nWords = r.u32();
                fatalIf(nWords == 0 || nWords > Crossbar::kBlockWords,
                        [&] {
                            return "state fetch reply: bad block word "
                                   "count " +
                                   std::to_string(nWords);
                        });
                rec.words.resize(nWords);
                for (uint64_t &word : rec.words)
                    word = r.u64();
                ci.blocks.push_back(std::move(rec));
            }
            img.crossbars.push_back(std::move(ci));
        }
        r.expectEnd("state fetch reply");
        // Masks and Stats are REPLICATED bit-identically across the
        // fleet; worker 0 speaks for the logical device.
        if (d == 0) {
            img.maskXb = xb;
            img.maskRow = row;
            img.archStats = s;
        }
    }
    // Workers answer in ascending slice order and each emits its owned
    // crossbars ascending, so the image is already canonical.
    return img;
}

void
SocketTransport::restoreImage(const CheckpointImage &img)
{
    // Respawn the fallen: a fresh process is power-on state plus an
    // empty trace cache (the host-side installed set was cleared when
    // the death was detected).
    for (uint32_t d = 0; d < devices(); ++d)
        if (!workers_[d].alive)
            spawn(d);
    const std::vector<uint8_t> bytes = encodeCheckpoint(img);
    for (uint32_t d = 0; d < devices(); ++d) {
        try {
            roundTrip(d, kMsgStateRestore, bytes.data(), bytes.size());
        } catch (const WorkerDied &) {
            // A worker that died since its last message only reveals
            // itself when the broadcast hits its broken pipe — fold
            // that discovery into the restore (respawn, resend) so one
            // call rebuilds the whole fleet. A second failure is a
            // genuinely broken environment and propagates.
            spawn(d);
            roundTrip(d, kMsgStateRestore, bytes.data(), bytes.size());
        }
    }
}

} // namespace pypim
