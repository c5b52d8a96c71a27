/**
 * @file
 * Tests for the interned half-gate expansions (sim/half_gates_table.hpp):
 * an interned entry must equal a fresh expandLogicH field by field for
 * every LogicH word the driver emits, malformed words must panic on
 * every submission and leave no entry, an INIT-chain merge must never
 * write through to a shared entry, and the trace cache plus the table
 * must stay small and stop growing once a workload's words are known.
 */
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "sim/batch_trace.hpp"
#include "sim/half_gates_table.hpp"
#include "sim/simulator.hpp"
#include "reference_engine.hpp"

using namespace pypim;

namespace
{

/** Field-by-field equality of two expansions. */
::testing::AssertionResult
sameExpansion(const HalfGates &a, const HalfGates &b)
{
    if (a.gate != b.gate || a.numPartitions != b.numPartitions ||
        a.numSections != b.numSections || a.numGates != b.numGates)
        return ::testing::AssertionFailure()
               << "header differs (sections " << a.numSections << " vs "
               << b.numSections << ", gates " << a.numGates << " vs "
               << b.numGates << ")";
    for (uint32_t p = 0; p < maxPartitions; ++p) {
        if (a.opcodes[p] != b.opcodes[p] ||
            a.conducting[p] != b.conducting[p])
            return ::testing::AssertionFailure()
                   << "partition " << p << " differs";
        const Section &x = a.sections[p];
        const Section &y = b.sections[p];
        if (x.begin != y.begin || x.end != y.end ||
            x.outCol != y.outCol || x.inCol != y.inCol ||
            x.numIn != y.numIn)
            return ::testing::AssertionFailure()
                   << "section " << p << " differs";
    }
    return ::testing::AssertionSuccess();
}

/**
 * Forwards everything to a Simulator and records every LogicH word
 * that reaches it, whether submitted raw or through prepareTrace, and
 * keeps the prepared traces so their pointers can be checked.
 */
class RecordingSink : public OperationSink
{
  public:
    explicit RecordingSink(Simulator &sim) : sim_(sim) {}

    void
    performBatch(const Word *ops, size_t n) override
    {
        record(ops, n);
        sim_.performBatch(ops, n);
    }
    void
    submitBatch(const Word *ops, size_t n) override
    {
        record(ops, n);
        sim_.submitBatch(ops, n);
    }
    void flush() override { sim_.flush(); }
    uint32_t performRead(Word op) override { return sim_.performRead(op); }
    std::shared_ptr<const BatchTrace>
    prepareTrace(const Word *ops, size_t n, bool fuse) override
    {
        record(ops, n);
        auto t = sim_.prepareTrace(ops, n, fuse);
        if (t)
            traces.push_back(t);
        return t;
    }
    void
    submitTrace(std::shared_ptr<const BatchTrace> trace) override
    {
        sim_.submitTrace(std::move(trace));
    }

    std::set<Word> logicH;
    std::vector<std::shared_ptr<const BatchTrace>> traces;

  private:
    void
    record(const Word *ops, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            if (enc::peekType(ops[i]) == OpType::LogicH)
                logicH.insert(ops[i]);
    }

    Simulator &sim_;
};

/** Run every supported Table II (op, dtype) once through @p drv. */
void
runTableII(Driver &drv, const Geometry &g)
{
    for (uint8_t o = 0; o <= static_cast<uint8_t>(ROp::Copy); ++o) {
        for (const DType dt : {DType::Int32, DType::Float32}) {
            const ROp op = static_cast<ROp>(o);
            if (!ropSupported(op, dt))
                continue;
            RTypeInstr in;
            in.op = op;
            in.dtype = dt;
            in.rd = 3;
            in.ra = 0;
            in.rb = 1;
            in.rc = 2;
            in.warps = Range::all(g.numCrossbars);
            in.rows = Range::all(g.rows);
            drv.execute(in);
        }
    }
}

/**
 * Every LogicH word the driver emits for the Table II ops, in both
 * arithmetic modes, must be interned, and the entry must equal a
 * fresh expansion; every LogicH op of every prepared trace must point
 * at a table entry or at its own segment's merge result.
 */
void
expectInternedMatchesFresh(const Geometry &g, const EngineConfig &ec)
{
    for (const Driver::Mode mode :
         {Driver::Mode::Serial, Driver::Mode::Parallel}) {
        Simulator sim(g, ec);
        RecordingSink rec(sim);
        Driver drv(rec, g, mode);
        runTableII(drv, g);
        // The second pass hits the trace cache for every signature.
        runTableII(drv, g);
        sim.flush();

        const HalfGatesTable &table = sim.halfGatesTable();
        ASSERT_GT(rec.logicH.size(), 100u);
        EXPECT_EQ(table.entries(), rec.logicH.size());
        std::set<const HalfGates *> entries;
        for (const Word w : rec.logicH) {
            const HalfGates *hg = table.find(w);
            ASSERT_NE(hg, nullptr) << "word " << w << " not interned";
            EXPECT_TRUE(sameExpansion(*hg, expandLogicH(MicroOp::decode(w),
                                                        g)))
                << "word " << w;
            entries.insert(hg);
        }
        ASSERT_FALSE(rec.traces.empty());
        for (const auto &t : rec.traces) {
            EXPECT_EQ(t->halfGates.get(), &table);
            for (uint32_t s = 0; s < t->used; ++s) {
                const SegmentTrace &seg = t->segments[s];
                for (const TraceOp &op : seg.ops) {
                    if (op.type != OpType::LogicH)
                        continue;
                    bool merged = false;
                    for (const auto &m : seg.merged)
                        merged = merged || m.get() == op.hg;
                    EXPECT_TRUE(merged || entries.count(op.hg))
                        << "trace op points outside the table";
                }
            }
        }
    }
}

Geometry
sortReduceGeometry()
{
    Geometry g;
    g.rows = 128;
    g.numCrossbars = 4;
    return g;
}

std::vector<Word>
withMasks(const Geometry &g, std::vector<Word> body)
{
    std::vector<Word> ops = {
        MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode(),
        MicroOp::rowMask(Range::all(g.rows)).encode(),
    };
    ops.insert(ops.end(), body.begin(), body.end());
    return ops;
}

Word
laneInit1(const Geometry &g, uint32_t slot)
{
    return MicroOp::logicH(Gate::Init1, 0, 0, g.column(slot, 0),
                           g.partitions - 1, 1)
        .encode();
}

/** Column address of (partition, intra index). */
uint32_t
col(const Geometry &g, uint32_t part, uint32_t idx)
{
    return part * g.partitionWidth() + idx;
}

/** LogicH words that violate the restricted partition model. */
std::vector<Word>
malformedWords(const Geometry &g)
{
    return {
        // inB outside the gate span.
        MicroOp::logicH(Gate::Nor, col(g, 2, 0), col(g, 9, 1),
                        col(g, 5, 3), 5, 0)
            .encode(),
        // Repeated gates overlap.
        MicroOp::logicH(Gate::Nor, col(g, 0, 0), col(g, 2, 1),
                        col(g, 2, 3), 30, 2)
            .encode(),
        // pStep does not divide pEnd - pOut.
        MicroOp::logicH(Gate::Nor, col(g, 0, 0), col(g, 0, 1),
                        col(g, 0, 2), 31, 3)
            .encode(),
        // pEnd precedes the first gate's output.
        MicroOp::logicH(Gate::Not, col(g, 3, 0), 0, col(g, 5, 2), 1, 1)
            .encode(),
    };
}

/** The InternalError message @p fn throws, or "" if it does not. */
template <typename Fn>
std::string
panicMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const InternalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(HalfGatesTable, InternedEqualsFreshOnDefaultGeometry)
{
    // The expansion depends on the column and partition layout only,
    // so one crossbar of the default geometry emits every word the
    // full array would.
    Geometry g;
    g.numCrossbars = 1;
    expectInternedMatchesFresh(g, EngineConfig{});
}

TEST(HalfGatesTable, InternedEqualsFreshOnSortReduceGeometry)
{
    // Pipelined with a worker pool: the producer interns while the
    // consumer and the pool read earlier entries.
    expectInternedMatchesFresh(
        sortReduceGeometry(),
        EngineConfig{}.withThreads(2).withPipeline());
}

TEST(HalfGatesTable, InternReturnsOneStableEntryPerWord)
{
    const Geometry g = testGeometry();
    HalfGatesTable table(g);
    const Word a = laneInit1(g, 3);
    const Word b = laneInit1(g, 4);
    const HalfGates *pa = &table.intern(a, MicroOp::decode(a));
    // Growing the table never moves an existing entry.
    for (uint32_t s = 4; s < g.slots(); ++s) {
        const Word w = laneInit1(g, s);
        table.intern(w, MicroOp::decode(w));
    }
    EXPECT_EQ(&table.intern(a, MicroOp::decode(a)), pa);
    EXPECT_EQ(table.find(a), pa);
    EXPECT_NE(table.find(b), pa);
    EXPECT_EQ(table.entries(), g.slots() - 3);
    EXPECT_GE(table.bytes(), table.entries() * sizeof(HalfGates));
}

TEST(HalfGatesTable, MalformedWordPanicsEveryTimeAndLeavesNoEntry)
{
    const Geometry g = testGeometry();
    HalfGatesTable table(g);
    for (const Word w : malformedWords(g)) {
        const MicroOp op = MicroOp::decode(w);
        const std::string fresh =
            panicMessage([&] { expandLogicH(op, g); });
        ASSERT_FALSE(fresh.empty()) << "word " << w << " is well formed";
        for (int rep = 0; rep < 3; ++rep)
            EXPECT_EQ(panicMessage([&] { table.intern(w, op); }), fresh)
                << "word " << w << ", submission " << rep;
        EXPECT_EQ(table.find(w), nullptr);
    }
    EXPECT_EQ(table.entries(), 0u);
}

TEST(HalfGatesTable, MalformedWordPanicsOnEverySubmitPath)
{
    const Geometry g = testGeometry();
    for (const EngineConfig &ec :
         {EngineConfig{}, EngineConfig{}.withThreads(2).withPipeline()}) {
        Simulator sim(g, ec);
        const Word good = laneInit1(g, 3);
        for (const Word bad : malformedWords(g)) {
            const std::vector<Word> ops = withMasks(g, {good, bad});
            const std::string fresh = panicMessage(
                [&] { expandLogicH(MicroOp::decode(bad), g); });
            for (int rep = 0; rep < 2; ++rep) {
                EXPECT_EQ(panicMessage([&] {
                              sim.submitBatch(ops.data(), ops.size());
                          }),
                          fresh);
                EXPECT_EQ(panicMessage([&] {
                              sim.prepareTrace(ops.data(), ops.size(),
                                               true);
                          }),
                          fresh);
            }
            EXPECT_EQ(sim.halfGatesTable().find(bad), nullptr);
        }
        // Only the well-formed prefix op was ever interned.
        EXPECT_EQ(sim.halfGatesTable().entries(), 1u);
        sim.flush();
    }
}

TEST(HalfGatesTable, InitChainMergeNeverWritesSharedEntry)
{
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    const Word shared = laneInit1(g, 4);
    // B uses the INIT1 on its own; A merges an earlier INIT1 into the
    // same word, which appends sections to A's expansion of it.
    const auto opsB = withMasks(g, {shared});
    const auto opsA = withMasks(g, {laneInit1(g, 3), shared});

    test::Reference<Simulator> oracle(g);
    Simulator cand(g);
    const HalfGatesTable &table = cand.halfGatesTable();
    const auto traceB = cand.prepareTrace(opsB.data(), opsB.size(), true);
    const auto traceA = cand.prepareTrace(opsA.data(), opsA.size(), true);
    ASSERT_TRUE(traceA && traceB);
    ASSERT_EQ(traceA->fusion.initChain, 1u);

    const HalfGates fresh = expandLogicH(MicroOp::decode(shared), g);
    const HalfGates *entry = table.find(shared);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(sameExpansion(*entry, fresh)) << "table entry was written";

    const TraceOp &opB = traceB->segments[0].ops.at(0);
    EXPECT_EQ(opB.hg, entry);
    EXPECT_TRUE(sameExpansion(*opB.hg, fresh)) << "trace B was changed";

    const SegmentTrace &segA = traceA->segments[0];
    ASSERT_EQ(segA.ops.size(), 1u);
    ASSERT_EQ(segA.merged.size(), 1u);
    EXPECT_EQ(segA.ops[0].hg, segA.merged[0].get());
    EXPECT_EQ(segA.ops[0].hg->numSections, 2 * fresh.numSections);

    // A trace built after the merge still sees the pristine entry.
    const auto traceC = cand.prepareTrace(opsB.data(), opsB.size(), true);
    EXPECT_TRUE(sameExpansion(*traceC->segments[0].ops.at(0).hg, fresh));

    // Replaying B after A must still initialise only slot 4.
    Rng rng(5);
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        for (uint32_t row = 0; row < g.rows; ++row)
            for (uint32_t slot = 0; slot < g.slots(); ++slot) {
                const uint32_t v = rng.word();
                oracle.crossbar(xb).writeRow(slot, v, row);
                cand.crossbar(xb).writeRow(slot, v, row);
            }
    oracle.performBatch(opsB.data(), opsB.size());
    cand.submitTrace(traceB);
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        EXPECT_TRUE(oracle.crossbar(xb).sameState(cand.crossbar(xb)))
            << "crossbar " << xb;
    EXPECT_EQ(oracle.stats(), cand.stats());
}

TEST(HalfGatesTable, SortReduceCacheStaysSmallAndStopsGrowing)
{
    const Geometry g = sortReduceGeometry();
    Device dev(g);
    Rng rng(7);
    std::vector<float> in(g.totalRows());
    for (float &v : in)
        v = static_cast<float>(static_cast<int32_t>(rng.word())) * 1e-6f;
    Tensor x = Tensor::zeros(in.size(), DType::Float32, &dev);
    const auto iteration = [&] {
        x.setVector(in);
        x.sort();
        (void)x.sum<float>();
        (void)x.prod<float>();
        dev.flush();
    };

    iteration();
    const HalfGatesTable &table = dev.group().halfGatesTable();
    const size_t entries = table.entries();
    const size_t bytes = dev.driver().traceCacheBytes() + table.bytes();
    EXPECT_GT(entries, 0u);
    EXPECT_LT(bytes, size_t{32} << 20)
        << "cached traces " << dev.driver().traceCacheBytes()
        << " B + table " << table.bytes() << " B";

    iteration();
    EXPECT_EQ(table.entries(), entries)
        << "a repeated iteration interned new LogicH words";
}
