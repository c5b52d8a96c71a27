/**
 * @file
 * Test oracles for the production stack.
 *
 * SerialEngine is the op-major reference interpreter the
 * crossbar-major engine (sim/engine.hpp) is held to: every micro-op
 * is decoded and applied to all mask-selected crossbars, in stream
 * order, on the calling thread — deliberately free of the segment
 * pre-pass, fusion and compilation it validates. Every LogicH op is
 * expanded afresh by expandLogicH, so the oracle is also independent
 * of the HalfGatesTable the production builders intern into. Frozen cached traces
 * (submitTrace) still replay through the engine's shared replay
 * path; their oracle is the uncached stream.
 *
 * The other oracles are switched per object or per scope:
 *  - Reference<T>: a Simulator, SimulatorGroup or Device whose
 *    engines are SerialEngines (through the engine factory seam);
 *  - InterpretedReplay: while alive, frozen traces stay on the
 *    segment interpreter instead of compiled ReplayPrograms;
 *  - Driver::setTraceCacheEnabled(false) and
 *    Driver::setBulkIoEnabled(false): fresh translation and
 *    element-wise host I/O on a live device.
 */
#ifndef PYPIM_TESTS_REFERENCE_ENGINE_HPP
#define PYPIM_TESTS_REFERENCE_ENGINE_HPP

#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/engine.hpp"
#include "sim/replay_program.hpp"
#include "uarch/partition.hpp"

namespace pypim::test
{

/** Single-threaded op-major replay of the full owned slice. */
class SerialEngine : public ExecutionEngine
{
  public:
    SerialEngine(const Geometry &geo, std::vector<Crossbar> &xbs,
                    uint32_t xbBase, const HTree &htree,
                    MaskState &mask, Stats &stats,
                    HalfGatesTable &halfGates)
        : ExecutionEngine(geo, xbs, xbBase, htree, mask, stats,
                          halfGates, 1)
    {
    }

    void
    execute(const Word *ops, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            perform(MicroOp::decode(ops[i]));
    }

  private:
    void
    perform(const MicroOp &op)
    {
        switch (op.type) {
          case OpType::CrossbarMask:
            op.range.validate(geo_.numCrossbars, "crossbar");
            mask_.xb = op.range;
            stats_.record(OpClass::CrossbarMask);
            break;
          case OpType::RowMask:
            op.range.validate(geo_.rows, "row");
            mask_.setRow(op.range, geo_.rows);
            stats_.record(OpClass::RowMask);
            break;
          case OpType::Write:
            fatalIf(op.index >= geo_.slots(),
                    "write: slot index out of range");
            forEachOwned(mask_.xb, [&](uint32_t xb) {
                xbAt(xb).write(op.index, op.value, mask_.rowWords);
            });
            stats_.record(OpClass::Write);
            break;
          case OpType::LogicH: {
            const HalfGates hg = expandLogicH(op, geo_);
            forEachOwned(mask_.xb, [&](uint32_t xb) {
                xbAt(xb).logicH(hg, mask_.rowWords);
            });
            stats_.record(OpClass::LogicH);
            countGate(op.gate == Gate::Nor || op.gate == Gate::Not);
            break;
          }
          case OpType::LogicV:
            fatalIf(op.index >= geo_.slots(),
                    "logicV: slot index out of range");
            fatalIf(op.rowIn >= geo_.rows || op.rowOut >= geo_.rows,
                    "logicV: row out of range");
            forEachOwned(mask_.xb, [&](uint32_t xb) {
                xbAt(xb).logicV(op.gate, op.rowIn, op.rowOut,
                                op.index);
            });
            stats_.record(OpClass::LogicV);
            countGate(op.gate == Gate::Not);
            break;
          case OpType::Read:
          case OpType::Move:
            serialPerform(op);
            break;
        }
    }

    void
    countGate(bool isGate)
    {
        if (isGate)
            ++stats_.logicGates;
        else
            ++stats_.logicInits;
    }
};

inline std::unique_ptr<ExecutionEngine>
makeSerialEngine(const EngineConfig &, const Geometry &geo,
                    std::vector<Crossbar> &xbs, uint32_t xbBase,
                    const HTree &htree, MaskState &mask, Stats &stats,
                    HalfGatesTable &halfGates)
{
    return std::make_unique<SerialEngine>(geo, xbs, xbBase, htree,
                                             mask, stats, halfGates);
}

namespace detail
{
/** Installs the reference factory for the duration of a
 *  Reference<T> constructor (and clears it if that throws). */
struct InstallSerialEngine
{
    InstallSerialEngine()
    {
        setEngineFactoryForTesting(&makeSerialEngine);
    }
    ~InstallSerialEngine() { setEngineFactoryForTesting(nullptr); }
};
} // namespace detail

/**
 * @p T (Simulator, SimulatorGroup or Device) built on SerialEngines.
 * Only construction uses the seam: a later setEngine swap builds the
 * production engine.
 */
template <typename T>
class Reference : detail::InstallSerialEngine, public T
{
  public:
    template <typename... Args>
    explicit Reference(Args &&...args) : T(std::forward<Args>(args)...)
    {
        setEngineFactoryForTesting(nullptr);
    }
};

/** One production configuration a suite sweeps. */
struct EngineCase
{
    const char *name;
    EngineConfig cfg;
};

/** The sweep shared by the suites: inline one thread and a
 *  two-worker pool, each synchronous and pipelined. */
inline const EngineCase &
engineCase(size_t i)
{
    static const EngineCase cases[] = {
        {"threads=1", EngineConfig{}},
        {"threads=2", EngineConfig{}.withThreads(2)},
        {"threads=1+pipe", EngineConfig{}.withPipeline()},
        {"threads=2+pipe", EngineConfig{}.withThreads(2).withPipeline()},
    };
    return cases[i];
}
constexpr size_t numEngineCases = 4;

/** While alive, frozen traces replay through the segment interpreter
 *  (the compiled executors' oracle). */
struct InterpretedReplay
{
    InterpretedReplay() { setTraceCompilationEnabled(false); }
    ~InterpretedReplay() { setTraceCompilationEnabled(true); }
    InterpretedReplay(const InterpretedReplay &) = delete;
    InterpretedReplay &operator=(const InterpretedReplay &) = delete;
};

} // namespace pypim::test

#endif // PYPIM_TESTS_REFERENCE_ENGINE_HPP
