/**
 * @file
 * The simulator's micro-op execution engine.
 *
 * The simulator's job splits cleanly in two: *what* a micro-op does to
 * the crossbar state (bit-accurate semantics, paper §III) and *how*
 * the host machine replays it over the simulated memory. The engine
 * is the "how". It rests on the structural fact the paper's simulator
 * exploits (§VI): crossbars are independent between the
 * cross-crossbar ops (Read and the H-tree Move), which serialise.
 *
 *  1. A batch splits into SEGMENTS at each Move/Read op.
 *  2. Each segment is decoded exactly once into a SegmentTrace by the
 *     shared pre-pass (sim/segment_trace.hpp): decoded ops pointing
 *     at their LogicH half-gate expansions, interned once per word in
 *     the simulator's HalfGatesTable, mask ops absorbed into per-op
 *     crossbar-mask and row-mask snapshots, INIT+gate pairs fused.
 *     The pre-pass validates every op, records the architectural
 *     statistics and advances the authoritative mask state; it
 *     touches no crossbar.
 *  3. The trace replays CROSSBAR-MAJOR: each crossbar's entire
 *     segment is applied while its state is hot in cache
 *     (Crossbar::replaySegment, or Crossbar::replayProgram for the
 *     compiled programs of frozen cached traces). With threads > 1
 *     the segment's crossbar hull is carved into small chunks claimed
 *     from a shared atomic counter by a persistent pool, so a strided
 *     crossbar mask still load-balances. With one thread (the
 *     default) the pool spawns no worker and replay runs inline.
 *  4. Move/Read ops form a barrier and run on the calling thread.
 *
 * The engine operates on state OWNED BY the Simulator (crossbars,
 * H-tree, in-stream mask state, stats), so it can be swapped at
 * runtime without losing memory contents. Its oracle is the op-major
 * reference interpreter of tests/reference_engine.hpp, installed
 * through setEngineFactoryForTesting; the parity suites
 * (tests/test_engine_parity.cpp and others) hold the engine to it
 * bit for bit, in crossbar state and architectural Stats, at every
 * thread count.
 *
 * Error streams: the pre-pass rejects a bad op BEFORE its segment
 * touches any crossbar, whereas the op-major reference applies the
 * prefix first.
 */
#ifndef PYPIM_SIM_ENGINE_HPP
#define PYPIM_SIM_ENGINE_HPP

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/crossbar.hpp"
#include "sim/htree.hpp"
#include "sim/segment_trace.hpp"
#include "sim/thread_pool.hpp"
#include "uarch/microop.hpp"

namespace pypim
{

struct BatchTrace;
struct BulkIoSpec;
class HalfGatesTable;
struct ReplayProgram;

/**
 * The crossbar-major execution engine. Owns no simulated state;
 * executes encoded micro-op batches against the Simulator's
 * crossbars, mask state and statistics counters (all passed in by
 * reference).
 *
 * Crossbar slices: @p xbs may hold only a contiguous SLICE of the
 * geometry's crossbar space — xbs[0] is global crossbar @p xbBase —
 * when the simulator is one sub-device of a sharded logical device
 * (sim/device_group.hpp). The micro-op stream stays in GLOBAL
 * coordinates (masks, traces and stats are identical on every
 * sub-device); the engine clips every state application to the owned
 * slice: work ops iterate the mask intersected with the slice, Moves
 * apply only transfers with both endpoints owned (boundary transfers
 * are exchanged above the simulator), and Reads outside the slice
 * validate and count but return 0. A full-array engine has xbBase 0
 * and owns everything, so the monolithic path is unchanged.
 */
class ExecutionEngine
{
  public:
    /**
     * @p halfGates is the owning simulator's expansion table, which
     * execute() interns into (on the calling thread). @p threads is
     * the replay parallelism (clamped to [1, owned crossbars]);
     * @p pinWorkers pins the spawned pool workers to distinct host
     * cores (EngineConfig::affinity), a no-op on platforms without
     * thread-affinity support.
     */
    ExecutionEngine(const Geometry &geo, std::vector<Crossbar> &xbs,
                    uint32_t xbBase, const HTree &htree,
                    MaskState &mask, Stats &stats,
                    HalfGatesTable &halfGates, uint32_t threads,
                    bool pinWorkers = false);

    virtual ~ExecutionEngine() = default;

    ExecutionEngine(const ExecutionEngine &) = delete;
    ExecutionEngine &operator=(const ExecutionEngine &) = delete;

    /** Host threads participating in replay. */
    uint32_t threads() const { return pool_.size(); }

    /**
     * Execute @p n encoded micro-operations in order. Virtual only so
     * the test reference interpreter can replace it.
     */
    virtual void execute(const Word *ops, size_t n);

    /**
     * Replay one pre-built segment trace over the owned crossbars.
     * This is the hand-off entry the pipelined path (sim/pipeline.hpp)
     * feeds: the trace was already validated and recorded in the
     * architectural stats by the pre-pass, so the engine only applies
     * state changes.
     */
    void replayTrace(const SegmentTrace &trace);

    /**
     * Replay one compiled replay program (sim/replay_program.hpp) —
     * the fast path replayBatch takes for segments of a frozen cached
     * trace. Same clipping and threading contract as replayTrace; the
     * per-crossbar work is Crossbar::replayProgram, whose executor is
     * specialized over storage mode and mask shape.
     */
    void replayProgram(const ReplayProgram &prog);

    /**
     * Replay one pre-built batch in stream order: Moves via applyMove,
     * segments via replayProgram when the batch carries a compiled
     * program for them (frozen cache entries) and via the replayTrace
     * interpreter otherwise (one-shot pipeline arenas). Shared by the
     * pipelined consumer and the synchronous trace-cache hit path —
     * either way the batch was validated and its stats recorded at
     * build time, so this is pure state application.
     */
    void replayBatch(const BatchTrace &batch);

    /**
     * Apply a pre-validated Move under the crossbar-mask snapshot
     * @p xb: pure data movement, no validation, no stats. The
     * pipelined consumer thread calls this for queued Move items
     * (validation and stats were recorded at submit time).
     */
    void applyMove(const MicroOp &op, const Range &xb);

    /**
     * Execute a Read micro-op and return the N-bit response. Reads
     * address exactly one (crossbar, row) and are inherently serial.
     */
    uint32_t executeRead(const MicroOp &op);

    /**
     * Gather the values addressed by a bulk transfer spec
     * (sim/bulk_io.hpp) into @p out: per owned crossbar one
     * gatherRows call when the elements are row-consecutive, scalar
     * reads otherwise. Elements outside the owned slice are left
     * untouched — on a sharded device every sub-device fills its
     * disjoint share of the common host buffer. Stats were applied by
     * the caller (the spec carries the pre-planned delta). Returns
     * 64-bit words transposed. The transfer runs after a drain, so
     * the array is quiescent.
     */
    uint64_t executeReadBulk(const BulkIoSpec &spec, uint32_t *out);

    /** The scatter mirror of executeReadBulk: write @p values into
     *  the addressed rows of owned crossbars. */
    uint64_t applyWriteBulk(const BulkIoSpec &spec,
                            const uint32_t *values);

    /**
     * Per-worker applied-work counters (one op recorded per crossbar
     * actually touched by that worker): a load-balance diagnostic, NOT
     * the architectural stats. Which worker claims which chunk is
     * scheduling-dependent, but the merged total (Stats::merged)
     * always equals architectural work ops x touched crossbars.
     */
    const std::vector<Stats> &shardWork() const { return work_; }

  protected:
    /** Execute a barrier op (Read or Move) with its validation and
     *  stats; the only ops that bypass the segment pre-pass. */
    void serialPerform(const MicroOp &op);

    // --- owned-slice helpers (global crossbar coordinates) -------------

    /** First global crossbar id owned by this engine. */
    uint32_t sliceLo() const { return xbBase_; }
    /** One past the last owned global crossbar id. */
    uint32_t
    sliceHi() const
    {
        return xbBase_ + static_cast<uint32_t>(xbs_.size());
    }
    /** True iff global crossbar @p g lives in the owned slice. */
    bool
    owns(uint32_t g) const
    {
        return g >= xbBase_ && g < sliceHi();
    }
    /** Owned crossbar by GLOBAL id (callers check owns() first). */
    Crossbar &xbAt(uint32_t g) { return xbs_[g - xbBase_]; }

    /**
     * Invoke @p fn(g) for every element of @p r that falls inside the
     * owned slice, ascending — the masked-broadcast inner loop of the
     * work ops, clipped to this sub-device.
     */
    template <typename Fn>
    void
    forEachOwned(const Range &r, Fn &&fn)
    {
        const uint32_t hi = sliceHi();
        if (r.start >= hi)
            return;
        uint32_t first = r.start;
        if (first < xbBase_)
            first += (xbBase_ - r.start + r.step - 1) / r.step * r.step;
        const uint32_t last = std::min(r.stop, hi - 1);
        for (uint32_t g = first; g <= last; g += r.step)
            fn(g);
    }

    const Geometry &geo_;
    std::vector<Crossbar> &xbs_;
    const uint32_t xbBase_;
    const HTree &htree_;
    MaskState &mask_;
    Stats &stats_;
    HalfGatesTable &halfGates_;

  private:
    /**
     * Run @p fn(xb, work) for every owned crossbar of the hull
     * [@p lo, @p hi) — inline with one thread, under the
     * work-stealing chunk schedule otherwise — charging each worker's
     * applied work to shardWork().
     */
    template <typename Fn> void replayHull(uint32_t lo, uint32_t hi,
                                           Fn &&fn);

    ThreadPool pool_;
    std::vector<Stats> work_;
    std::atomic<uint32_t> next_{0};  //!< chunk claim counter
    SegmentTrace trace_;  //!< execute()'s arena, reused across batches
    /** Move scratch (read-all-then-write-all staging), reused so the
     *  per-op hot path never allocates. */
    std::vector<uint32_t> moveValues_;
    std::vector<uint32_t> moveDsts_;
};

/** Build the engine for @p cfg over the given state. */
std::unique_ptr<ExecutionEngine>
makeEngine(const EngineConfig &cfg, const Geometry &geo,
           std::vector<Crossbar> &xbs, uint32_t xbBase,
           const HTree &htree, MaskState &mask, Stats &stats,
           HalfGatesTable &halfGates);

/** Signature of makeEngine, for the test seam below. */
using EngineFactory = std::unique_ptr<ExecutionEngine> (*)(
    const EngineConfig &, const Geometry &, std::vector<Crossbar> &,
    uint32_t, const HTree &, MaskState &, Stats &, HalfGatesTable &);

/**
 * Test seam: while @p f is set, makeEngine builds every engine
 * through it instead (process-wide; forked socket workers inherit
 * it). The parity suites install the op-major reference interpreter
 * of tests/reference_engine.hpp this way; nullptr restores the
 * production engine.
 */
void setEngineFactoryForTesting(EngineFactory f);

/**
 * Validate a Read against the mask state exactly as the op-major
 * reference would, without touching any crossbar. Shared between
 * executeRead and the pipeline pre-pass (which validates at submit
 * time so a malformed op is reported at the submitBatch containing
 * it).
 */
void validateRead(const MicroOp &op, const Range &xb, const Range &row,
                  const Geometry &geo);

/**
 * Validate a Move against the crossbar mask @p xb exactly as the
 * op-major reference would, without touching any crossbar. Returns the
 * (signed) crossbar distance of the transfer.
 */
int64_t validateMove(const MicroOp &op, const Range &xb,
                     const Geometry &geo);

} // namespace pypim

#endif // PYPIM_SIM_ENGINE_HPP
