/**
 * @file
 * Decode-once half-gate expansions (paper §III-D3).
 *
 * The crossbar periphery turns one 42-bit LogicH word into
 * per-partition opcodes, transistor selects and dynamic sections.
 * expandLogicH (uarch/partition.hpp) is that decoding: a pure
 * function of the word and the geometry, and a 1680-byte result. A
 * workload issues a few thousand distinct LogicH words but millions
 * of LogicH ops, so the segment builders intern the expansions here
 * and their traces point into the table instead of holding a copy
 * per op.
 *
 * Contract:
 *
 *  - IMMUTABLE, NODE-STABLE ENTRIES. An entry never moves and never
 *    changes once inserted; a `const HalfGates *` handed out stays
 *    valid for the table's lifetime. Traces that keep pointers also
 *    keep the table alive (BatchTrace::halfGates holds a shared_ptr),
 *    so a cached trace outlives the simulator that built it safely.
 *  - FAILURE LEAVES NO TRACE. An entry is inserted only after
 *    expandLogicH returns; a malformed word panics with the same
 *    InternalError on its first and on every later submission.
 *  - ONE WRITER. intern() and fusable() mutate the table and run only
 *    on the thread that builds traces (the submitting thread of the
 *    owning Simulator or SimulatorGroup, or a shard worker's message
 *    loop). Replay threads — the pipeline consumer and the engine's
 *    pool workers — only dereference entry pointers, and only for
 *    traces handed to them through the pipeline queue's mutex or the
 *    pool's dispatch, both of which order the insert before the read.
 *    Appending never touches an existing entry, so a reader never
 *    races the writer.
 *  - GEOMETRY-BOUND. Expansions depend on the column and partition
 *    layout; a table serves exactly one Geometry.
 *
 * The table grows with the set of distinct LogicH words, which a
 * workload's driver routines bound: the fp32 sort/sum/prod loop on 4
 * crossbars of 128 rows settles at 8,420 entries (14.8 MB) after its
 * first iteration and adds none afterwards. Its 42 cached traces
 * held 179,006 per-op copies of HalfGates (about 301 MB) before the
 * table; they now take 14.1 MB. intern() and fusable() allocate
 * only on a miss.
 */
#ifndef PYPIM_SIM_HALF_GATES_TABLE_HPP
#define PYPIM_SIM_HALF_GATES_TABLE_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/config.hpp"
#include "uarch/microop.hpp"
#include "uarch/partition.hpp"

namespace pypim
{

/** Interned LogicH expansions of one geometry (see file comment). */
class HalfGatesTable
{
  public:
    explicit HalfGatesTable(const Geometry &geo) : geo_(geo) {}

    HalfGatesTable(const HalfGatesTable &) = delete;
    HalfGatesTable &operator=(const HalfGatesTable &) = delete;

    const Geometry &geometry() const { return geo_; }

    /**
     * The expansion of the LogicH word @p word, whose decoded form is
     * @p op: looked up, or expanded and inserted on first sight.
     * Panics exactly as expandLogicH does, inserting nothing.
     */
    const HalfGates &intern(Word word, const MicroOp &op);

    /** The entry of @p word, or null if it was never interned. */
    const HalfGates *find(Word word) const;

    /**
     * fusableInitNor (sim/segment_trace.hpp) of two entries of THIS
     * table, computed once per pair and memoised. Copies that do not
     * live in the table (an INIT-chain merge's trace-owned result)
     * go to fusableInitNor directly.
     */
    bool fusable(const HalfGates &init, const HalfGates &nor);

    /** Distinct LogicH words interned. */
    size_t entries() const { return store_.size(); }

    /** Approximate heap footprint: entries, index and pair memo. */
    size_t bytes() const;

  private:
    struct PairHash
    {
        size_t
        operator()(const std::pair<const HalfGates *,
                                   const HalfGates *> &p) const
        {
            const auto a = reinterpret_cast<uintptr_t>(p.first);
            const auto b = reinterpret_cast<uintptr_t>(p.second);
            const uint64_t h = (a * 0x9E3779B97F4A7C15ull) ^
                               (b * 0xC2B2AE3D27D4EB4Full);
            return static_cast<size_t>(h ^ (h >> 29));
        }
    };

    Geometry geo_;
    /** Entry storage: push_back never moves an existing element. */
    std::deque<HalfGates> store_;
    std::unordered_map<Word, const HalfGates *> index_;
    std::unordered_map<std::pair<const HalfGates *, const HalfGates *>,
                       bool, PairHash>
        fusable_;
};

} // namespace pypim

#endif // PYPIM_SIM_HALF_GATES_TABLE_HPP
