/**
 * @file
 * Versioned BatchTrace wire format — the other half of the fleet wire
 * protocol (sim/serialize.hpp built the state half in PR 9).
 *
 * A frozen BatchTrace crosses a shard-transport link as one
 * self-contained image, content-addressed by traceSignature() (FNV-1a
 * of the source micro-op words plus the fusion flag — the same
 * identity the driver's stream cache keys on, so identical workloads
 * produce identical wire addresses). The image carries:
 *
 *  - the RAW SOURCE STREAM: the receiver rebuilds the trace
 *    deterministically with buildBatchTrace/fuseBatchTrace on its own
 *    arenas — the raw-trace fallback that keeps the format valid for
 *    any receiver;
 *  - the batch's architectural epilogue (Stats, final masks) as a
 *    CROSS-CHECK: the rebuilt trace must reproduce it exactly, so a
 *    sender/receiver decode divergence fails loudly instead of
 *    silently corrupting the replicated-stats invariant;
 *  - the compiled ReplayProgram SoA arenas (instructions, merged
 *    column-pass sections, pre-chunked write stripes, pre-decoded
 *    LogicV runs, row-mask words), absent only when a test switched
 *    compilation off (setTraceCompilationEnabled): the
 *    receiver installs these VERBATIM instead of recompiling, so the
 *    executed program is bit-for-bit the sender's.
 *
 * Framing (CRC, length prefix) is the transport's job
 * (sim/transport.hpp); this codec still magic/version-guards and
 * bounds-checks every field and throws pypim::Error on any damage —
 * a corrupt trace image must never install partial state.
 */
#ifndef PYPIM_SIM_TRACE_WIRE_HPP
#define PYPIM_SIM_TRACE_WIRE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "uarch/microop.hpp"

namespace pypim
{

struct BatchTrace;
class HalfGatesTable;
class HTree;

/** Content address of a frozen trace: FNV-1a over the source micro-op
 *  words plus the fusion flag. */
uint64_t traceSignature(const Word *ops, size_t n, bool fuse);

/**
 * Build a frozen, wire-addressable BatchTrace from a self-contained
 * stream WITHOUT a Simulator: the host-side mirror of
 * Simulator::prepareTrace for transports whose sub-device state lives
 * elsewhere. Returns null when the stream does not lead with both
 * masks; otherwise the trace is built for the geometry of @p table
 * (interning its LogicH expansions there), optionally fused,
 * compiled, and stamped with its wire identity (BatchTrace::wireSig/
 * sourceOps/sourceFuse). Unlike the Simulator path, a malformed
 * stream throws without any stats side effect — the caller owns no
 * counters.
 */
std::shared_ptr<const BatchTrace>
buildWireTrace(const Word *ops, size_t n, bool fuse,
               const std::shared_ptr<HalfGatesTable> &table,
               const HTree &htree);

/** Encode @p trace (which must carry its wire identity) into one
 *  self-contained image. */
std::vector<uint8_t> encodeTraceWire(const BatchTrace &trace);

/**
 * Decode an image produced by encodeTraceWire into a freshly rebuilt
 * frozen trace for the geometry of @p table (the receiver's expansion
 * table, which the rebuild interns into), verifying the magic/
 * version/geometry guards, the signature, and the architectural
 * epilogue cross-check. Shipped ReplayPrograms are installed
 * verbatim. Throws pypim::Error on any mismatch or truncation.
 */
std::shared_ptr<const BatchTrace>
decodeTraceWire(const uint8_t *bytes, size_t n,
                const std::shared_ptr<HalfGatesTable> &table,
                const HTree &htree);

} // namespace pypim

#endif // PYPIM_SIM_TRACE_WIRE_HPP
