/**
 * @file
 * Compiled replay program tests (sim/replay_program.hpp).
 *
 * The compiled path must be an invisible optimisation: for any
 * self-contained stream, a compiled trace replays BIT-IDENTICALLY to
 * the same trace prepared with compilation switched off (the
 * interpreter) — same crossbar state, same architectural Stats, same
 * applied-work totals in the engine's diagnostics — at 1 and 2
 * threads, sync and pipelined, at 1/2/4 devices and on both storage
 * representations. The fuzzed suite pins that equivalence against the
 * op-major reference on the raw stream; the directed tests pin the
 * COMPILER's decisions — when LogicH ops may and may not merge into
 * one pass (mask change, section capacity, stateful-gate aliasing),
 * how stripes and LogicV runs chunk, and when the all-ones mask
 * specialisation may fire.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "sim/device_group.hpp"
#include "sim/replay_program.hpp"
#include "reference_engine.hpp"

using namespace pypim;

namespace
{

Geometry
fuzzGeometry()
{
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    return g;
}

using test::engineCase;
using test::EngineCase;
using test::numEngineCases;
using test::Reference;

/** prepareTrace with compilation switched off: the interpreter
 *  oracle of the compiled executors. */
template <typename Sink>
std::shared_ptr<const BatchTrace>
prepareInterpreted(Sink &sink, const std::vector<Word> &ops, bool fuse)
{
    test::InterpretedReplay off;
    return sink.prepareTrace(ops.data(), ops.size(), fuse);
}

/** Random valid Range over [0, limit). */
Range
randomRange(Rng &rng, uint32_t limit)
{
    const uint32_t start = rng.word() % limit;
    const uint32_t step = 1 + rng.word() % 8;
    const uint32_t maxN = (limit - 1 - start) / step;
    const uint32_t span = (rng.word() % (maxN + 1)) * step;
    return Range(start, start + span, step);
}

/**
 * Random SELF-CONTAINED stream (both masks lead, no Moves — the shape
 * prepareTrace caches on a device group). Biased towards runs of
 * LogicH under a stable mask so pass merging actually fires, with a
 * mix of full, partial and re-issued-identical row masks to cross the
 * specialisation boundary, plus stripes of Writes and LogicV runs.
 */
std::vector<Word>
randomTraceStream(Rng &rng, const Geometry &g, size_t len)
{
    std::vector<Word> ops;
    ops.reserve(len + 2);
    ops.push_back(
        MicroOp::crossbarMask(randomRange(rng, g.numCrossbars))
            .encode());
    ops.push_back(
        MicroOp::rowMask(Range(0, g.rows - 1, 1)).encode());
    while (ops.size() < len) {
        switch (rng.word() % 12) {
          case 0:
            ops.push_back(
                MicroOp::crossbarMask(randomRange(rng, g.numCrossbars))
                    .encode());
            break;
          case 1:
            // Full : partial : random = the mask population the
            // compiler's maskFull flag partitions.
            switch (rng.word() % 3) {
              case 0:
                ops.push_back(
                    MicroOp::rowMask(Range(0, g.rows - 1, 1))
                        .encode());
                break;
              case 1:
                ops.push_back(
                    MicroOp::rowMask(Range(0, g.rows / 2 - 1, 1))
                        .encode());
                break;
              default:
                ops.push_back(
                    MicroOp::rowMask(randomRange(rng, g.rows))
                        .encode());
                break;
            }
            break;
          case 2:
          case 3: {
            // Short Write bursts over distinct slots: stripe fodder.
            const uint32_t n = 1 + rng.word() % 4;
            const uint32_t base = rng.word() % g.slots();
            for (uint32_t k = 0; k < n; ++k)
                ops.push_back(
                    MicroOp::write((base + k) % g.slots(), rng.word())
                        .encode());
            break;
          }
          case 4:
          case 5: {
            const uint32_t out = g.column(rng.word() % g.slots(), 0);
            ops.push_back(
                MicroOp::logicH(rng.word() % 2 ? Gate::Init1
                                               : Gate::Init0,
                                0, 0, out, g.partitions - 1, 1)
                    .encode());
            break;
          }
          case 6:
          case 7:
          case 8: {
            uint32_t a = rng.word() % g.slots();
            uint32_t b = rng.word() % g.slots();
            uint32_t c = rng.word() % g.slots();
            if (a == c)
                a = (a + 1) % g.slots();
            if (b == c)
                b = (b + 2) % g.slots();
            if (b == c)
                b = (b + 1) % g.slots();
            const bool isNot = rng.word() % 2;
            ops.push_back(MicroOp::logicH(isNot ? Gate::Not
                                                : Gate::Nor,
                                          g.column(a, 0),
                                          g.column(isNot ? a : b, 0),
                                          g.column(c, 0),
                                          g.partitions - 1, 1)
                              .encode());
            break;
          }
          case 9:
          case 10: {
            // LogicV run on one slot (the VRun chunking unit).
            static const Gate kVGates[] = {Gate::Init0, Gate::Init1,
                                           Gate::Not};
            const uint32_t slot = rng.word() % g.slots();
            const uint32_t n = 1 + rng.word() % 3;
            for (uint32_t k = 0; k < n; ++k)
                ops.push_back(MicroOp::logicV(kVGates[rng.word() % 3],
                                              rng.word() % g.rows,
                                              rng.word() % g.rows,
                                              slot)
                                  .encode());
            break;
          }
          default: {
            // Data-less Read (single-crossbar, single-row masks).
            ops.push_back(MicroOp::crossbarMask(Range::single(
                                                    rng.word() %
                                                    g.numCrossbars))
                              .encode());
            ops.push_back(
                MicroOp::rowMask(Range::single(rng.word() % g.rows))
                    .encode());
            ops.push_back(
                MicroOp::read(rng.word() % g.slots()).encode());
            break;
          }
        }
    }
    return ops;
}

/** Seed every sink with identical random register contents. */
template <typename Sink>
void
seedState(Sink &s, uint64_t seed, const Geometry &g)
{
    Rng rng(seed);
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        for (uint32_t row = 0; row < g.rows; ++row)
            for (uint32_t slot = 0; slot < g.slots(); ++slot)
                s.crossbar(xb).writeRow(slot, rng.word(), row);
}

/**
 * Directed-stream helper: full crossbar mask + the given row mask,
 * then @p body, compiled through prepareTrace on a simulator.
 */
std::shared_ptr<const BatchTrace>
compileStream(const Geometry &g, const Range &rowMask,
              const std::vector<Word> &body, bool fuse = false)
{
    std::vector<Word> ops;
    ops.push_back(
        MicroOp::crossbarMask(Range(0, g.numCrossbars - 1, 1))
            .encode());
    ops.push_back(MicroOp::rowMask(rowMask).encode());
    ops.insert(ops.end(), body.begin(), body.end());
    Simulator sim(g, EngineConfig{});
    auto trace = sim.prepareTrace(ops.data(), ops.size(), fuse);
    EXPECT_NE(trace, nullptr);
    return trace;
}

Word
initH(const Geometry &g, Gate gate, uint32_t slot)
{
    return MicroOp::logicH(gate, 0, 0, g.column(slot, 0),
                           g.partitions - 1, 1)
        .encode();
}

Word
norH(const Geometry &g, uint32_t a, uint32_t b, uint32_t out)
{
    return MicroOp::logicH(Gate::Nor, g.column(a, 0), g.column(b, 0),
                           g.column(out, 0), g.partitions - 1, 1)
        .encode();
}

class ReplayProgramFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>>
{
};

} // namespace

TEST_P(ReplayProgramFuzz, CompiledReplayBitIdenticalToInterpreter)
{
    const auto [seed, caseIdx] = GetParam();
    const EngineCase &ec = engineCase(caseIdx);
    const Geometry g = fuzzGeometry();
    Rng streamRng(seed);
    const std::vector<Word> ops = randomTraceStream(streamRng, g, 140);
    constexpr int kReplays = 3;

    for (XbarStorage storage : {XbarStorage::Dense, XbarStorage::Paged}) {
        for (uint32_t devices : {1u, 2u, 4u}) {
            const EngineConfig base =
                ec.cfg.withStorage(storage).withDevices(devices);
            // Raw-stream reference, interpreter replay, and compiled
            // replay of ONE stream from ONE seeded state.
            Reference<Simulator> oracle(g);
            SimulatorGroup interp(g, base);
            SimulatorGroup compiled(g, base);
            seedState(oracle, seed, g);
            seedState(interp, seed, g);
            seedState(compiled, seed, g);

            auto ti = prepareInterpreted(interp, ops, true);
            auto tc =
                compiled.prepareTrace(ops.data(), ops.size(), true);
            ASSERT_NE(ti, nullptr);
            ASSERT_NE(tc, nullptr);
            // The switch decides at freeze: programs only when on.
            EXPECT_TRUE(ti->programs.empty());
            ASSERT_EQ(tc->programs.size(), tc->used);

            for (int rep = 0; rep < kReplays; ++rep) {
                oracle.performBatch(ops.data(), ops.size());
                interp.submitTrace(ti);
                compiled.submitTrace(tc);
            }
            interp.flush();
            compiled.flush();
            for (uint32_t xb = 0; xb < g.numCrossbars; ++xb) {
                ASSERT_TRUE(oracle.crossbar(xb).sameState(
                    interp.crossbar(xb)))
                    << ec.name << " interp crossbar " << xb;
                ASSERT_TRUE(oracle.crossbar(xb).sameState(
                    compiled.crossbar(xb)))
                    << ec.name << " compiled crossbar " << xb;
            }
            EXPECT_EQ(oracle.stats(), interp.stats()) << ec.name;
            EXPECT_EQ(oracle.stats(), compiled.stats()) << ec.name;
            for (uint32_t d = 1; d < devices; ++d)
                EXPECT_EQ(compiled.sub(0).stats(),
                          compiled.sub(d).stats())
                    << ec.name << " sub " << d;
        }
    }
}

TEST_P(ReplayProgramFuzz, CompiledReplayUnderSnapshots)
{
    // Paged storage with only a third of the rows of half the slots
    // seeded, so full-mask ops allocate contiguous column runs and the
    // compiled executor takes its run path. A snapshot taken
    // mid-stream then shares every run: replay
    // must clone instead of writing through it, and must materialise
    // exactly the blocks the per-block kernels would. Unfused, the
    // raw-stream reference (masked per-block kernels only) is
    // that reference; fused, dead-INIT folding legitimately changes
    // which blocks materialise, so the fused interpreter is.
    const auto [seed, caseIdx] = GetParam();
    const EngineCase &ec = engineCase(caseIdx);
    Geometry g = fuzzGeometry();
    g.numCrossbars = 4;
    std::vector<Word> ops;
    const auto seedHalf = [&](auto &sink) {
        Rng rng(seed);
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            for (uint32_t row = 0; row < g.rows; row += 3)
                for (uint32_t slot = 0; slot < g.slots(); slot += 2)
                    sink.crossbar(xb).writeRow(slot, rng.word(), row);
    };
    const auto check = [&](bool fuse, uint32_t devices) {
        const EngineConfig base = ec.cfg.withStorage(XbarStorage::Paged)
                                      .withDevices(devices);
        Reference<Simulator> oracle(g);
        Reference<Simulator> atSnapshot(g);  // stops at the snapshot
        SimulatorGroup interp(g, base);
        SimulatorGroup compiled(g, base);
        seedHalf(oracle);
        seedHalf(atSnapshot);
        seedHalf(interp);
        seedHalf(compiled);
        auto ti = prepareInterpreted(interp, ops, fuse);
        auto tc = compiled.prepareTrace(ops.data(), ops.size(), fuse);
        ASSERT_NE(ti, nullptr);
        ASSERT_NE(tc, nullptr);
        ASSERT_EQ(tc->programs.size(), tc->used);

        oracle.performBatch(ops.data(), ops.size());
        atSnapshot.performBatch(ops.data(), ops.size());
        interp.submitTrace(ti);
        compiled.submitTrace(tc);
        compiled.flush();
        std::vector<Crossbar::Snapshot> snaps;
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            snaps.push_back(compiled.crossbar(xb).snapshot());

        for (int rep = 0; rep < 2; ++rep) {
            oracle.performBatch(ops.data(), ops.size());
            interp.submitTrace(ti);
            compiled.submitTrace(tc);
        }
        interp.flush();
        compiled.flush();
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb) {
            ASSERT_TRUE(atSnapshot.crossbar(xb).sameState(snaps[xb]))
                << "snapshot of crossbar " << xb << " moved";
            ASSERT_TRUE(oracle.crossbar(xb).sameState(
                compiled.crossbar(xb)))
                << "compiled crossbar " << xb;
        }
        const uint64_t present = interp.storageGauges().blocksPresent;
        if (!fuse)
            EXPECT_EQ(oracle.storageGauges().blocksPresent, present);
        EXPECT_EQ(compiled.storageGauges().blocksPresent, present);

        // Restore the mid-stream image and replay the same two reps:
        // bit-identical to the uninterrupted runs.
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            compiled.crossbar(xb).restore(snaps[xb]);
        for (int rep = 0; rep < 2; ++rep)
            compiled.submitTrace(tc);
        compiled.flush();
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            ASSERT_TRUE(interp.crossbar(xb).sameState(
                compiled.crossbar(xb)))
                << "restored crossbar " << xb;
        EXPECT_EQ(compiled.storageGauges().blocksPresent, present);
    };
    // One block per column (every present column is a run) and two.
    for (const uint32_t rows : {64u, 1024u}) {
        g.rows = rows;
        Rng streamRng(seed);
        ops = randomTraceStream(streamRng, g, 140);
        for (const bool fuse : {false, true})
            for (uint32_t devices : {1u, 2u}) {
                SCOPED_TRACE(::testing::Message()
                             << ec.name << " rows=" << rows
                             << " fuse=" << fuse
                             << " devices=" << devices);
                check(fuse, devices);
            }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, ReplayProgramFuzz,
    ::testing::Combine(::testing::Values(101ull, 211ull, 307ull),
                       ::testing::Range<size_t>(0, numEngineCases)));

TEST(ReplayProgramWork, ShardedDiagnosticsConservedAcrossCompilation)
{
    // The compiled path charges the work-stealing diagnostics through
    // precomputed per-instruction (or per-crossbar) counts; the
    // merged total must equal the interpreter's per-op accounting
    // exactly. Which worker claims which chunk is scheduling-
    // dependent, so only the merged totals compare.
    const Geometry g = fuzzGeometry();
    Rng rng(4242);
    const std::vector<Word> ops = randomTraceStream(rng, g, 200);
    Stats totals[2];
    for (bool on : {false, true}) {
        Simulator sim(g, EngineConfig{}.withThreads(3));
        seedState(sim, 4242, g);
        auto trace = on ? sim.prepareTrace(ops.data(), ops.size(), true)
                        : prepareInterpreted(sim, ops, true);
        ASSERT_NE(trace, nullptr);
        for (int rep = 0; rep < 2; ++rep)
            sim.submitTrace(trace);
        totals[on ? 1 : 0] = Stats::merged(sim.engine().shardWork());
    }
    EXPECT_EQ(totals[0], totals[1]);
    EXPECT_GT(totals[1].opCount[static_cast<size_t>(OpClass::LogicH)],
              0u);
}

TEST(ReplayProgramCompile, IndependentGatesMergeIntoOnePass)
{
    // INIT1 s0; NOR(s1,s2)->s3; NOT(s4)->s5 under one full mask:
    // pairwise column-disjoint, so ONE pass of 3 x partitions
    // sections carrying the work of three architectural ops.
    const Geometry g = testGeometry();
    const auto t = compileStream(
        g, Range(0, g.rows - 1, 1),
        {initH(g, Gate::Init1, 0), norH(g, 1, 2, 3),
         MicroOp::logicH(Gate::Not, g.column(4, 0), g.column(4, 0),
                         g.column(5, 0), g.partitions - 1, 1)
             .encode()});
    ASSERT_EQ(t->programs.size(), 1u);
    const ReplayProgram &p = t->programs[0];
    ASSERT_EQ(p.instrs.size(), 1u);
    EXPECT_EQ(p.instrs[0].kind, ReplayProgram::Kind::HPass);
    EXPECT_EQ(p.instrs[0].count, 3 * g.partitions);
    EXPECT_EQ(p.instrs[0].work, 3u);
    EXPECT_TRUE(p.allMasksFull);
    EXPECT_TRUE(p.uniformXb);
    EXPECT_EQ(p.workLogicH, 3u);
}

TEST(ReplayProgramCompile, MaskChangeBreaksThePass)
{
    // A DIFFERENT row mask between two otherwise-mergeable gates
    // forces a second pass; re-issuing the IDENTICAL mask does not
    // (snapshots dedup by content, so the merge sees one mask id).
    const Geometry g = testGeometry();
    std::vector<Word> changed = {
        initH(g, Gate::Init0, 0),
        MicroOp::rowMask(Range(0, g.rows / 2 - 1, 1)).encode(),
        initH(g, Gate::Init0, 1)};
    const auto tChanged =
        compileStream(g, Range(0, g.rows - 1, 1), changed);
    ASSERT_EQ(tChanged->programs[0].instrs.size(), 2u);
    EXPECT_FALSE(tChanged->programs[0].allMasksFull);
    EXPECT_EQ(tChanged->programs[0].instrs[1].maskFull, 0u);

    std::vector<Word> reissued = {
        initH(g, Gate::Init0, 0),
        MicroOp::rowMask(Range(0, g.rows - 1, 1)).encode(),
        initH(g, Gate::Init0, 1)};
    const auto tSame =
        compileStream(g, Range(0, g.rows - 1, 1), reissued);
    EXPECT_EQ(tSame->programs[0].instrs.size(), 1u);
}

TEST(ReplayProgramCompile, StatefulGateAliasingBreaksThePass)
{
    const Geometry g = testGeometry();
    // Read-after-write: the second NOR reads the first's output.
    const auto raw = compileStream(g, Range(0, g.rows - 1, 1),
                                   {norH(g, 0, 1, 2), norH(g, 2, 3, 4)});
    EXPECT_EQ(raw->programs[0].instrs.size(), 2u);
    // Write-after-write: both drive the same output column (a
    // stateful NOR also reads its own output, so order matters).
    const auto waw = compileStream(g, Range(0, g.rows - 1, 1),
                                   {norH(g, 0, 1, 2), norH(g, 3, 4, 2)});
    EXPECT_EQ(waw->programs[0].instrs.size(), 2u);
    // Write-after-read: the INIT would clobber a column the open
    // pass's NOR read.
    const auto war =
        compileStream(g, Range(0, g.rows - 1, 1),
                      {norH(g, 0, 1, 2), initH(g, Gate::Init1, 0)});
    EXPECT_EQ(war->programs[0].instrs.size(), 2u);
    // Disjoint reads are NOT aliasing: two NORs sharing inputs merge.
    const auto shared =
        compileStream(g, Range(0, g.rows - 1, 1),
                      {norH(g, 0, 1, 2), norH(g, 0, 1, 3)});
    EXPECT_EQ(shared->programs[0].instrs.size(), 1u);
}

TEST(ReplayProgramCompile, SectionCapacitySplitsThePass)
{
    // 9 disjoint full-width INITs = 9 x 32 sections; the 256-section
    // pass budget admits exactly 8 of them.
    const Geometry g = testGeometry();
    std::vector<Word> body;
    for (uint32_t s = 0; s < 9; ++s)
        body.push_back(initH(g, Gate::Init0, s));
    const auto t = compileStream(g, Range(0, g.rows - 1, 1), body);
    const ReplayProgram &p = t->programs[0];
    ASSERT_EQ(p.instrs.size(), 2u);
    EXPECT_EQ(p.instrs[0].count, 256u);
    EXPECT_EQ(p.instrs[0].work, 8u);
    EXPECT_EQ(p.instrs[1].count, g.partitions);
    EXPECT_EQ(p.instrs[1].work, 1u);
}

TEST(ReplayProgramCompile, ShortRowsNeverFlagFull)
{
    // rows < 64: even the all-rows mask realizes a partial tail word.
    // Flagging it full would let the fill kernels set padding bits
    // that raw-word state comparison (and gather) would then observe.
    Geometry g = testGeometry();
    g.rows = 32;
    const auto t = compileStream(g, Range(0, g.rows - 1, 1),
                                 {initH(g, Gate::Init1, 0)});
    const ReplayProgram &p = t->programs[0];
    EXPECT_FALSE(p.allMasksFull);
    EXPECT_EQ(p.instrs[0].maskFull, 0u);
}

TEST(ReplayProgramCompile, StripesAndVRunsArePrechunked)
{
    const Geometry g = testGeometry();
    // 4 distinct-slot Writes fuse into one stripe; the compiled form
    // carries the pairs inline with work = stripe width.
    std::vector<Word> body;
    for (uint32_t s = 0; s < 4; ++s)
        body.push_back(MicroOp::write(s, 0xA0 + s).encode());
    const auto tw =
        compileStream(g, Range(0, g.rows - 1, 1), body, true);
    const ReplayProgram &pw = tw->programs[0];
    ASSERT_EQ(pw.instrs.size(), 1u);
    EXPECT_EQ(pw.instrs[0].kind, ReplayProgram::Kind::WStripe);
    EXPECT_EQ(pw.instrs[0].count, 4u);
    EXPECT_EQ(pw.instrs[0].work, 4u);
    EXPECT_EQ(pw.workWrites, 4u);

    // Same-slot LogicV ops chain into one run; a crossbar-mask change
    // in between starts a new one.
    std::vector<Word> vbody = {
        MicroOp::logicV(Gate::Init1, 1, 2, 5).encode(),
        MicroOp::logicV(Gate::Not, 2, 3, 5).encode(),
        MicroOp::logicV(Gate::Init0, 0, 1, 5).encode(),
        MicroOp::crossbarMask(Range(0, g.numCrossbars - 2, 2))
            .encode(),
        MicroOp::logicV(Gate::Init1, 4, 5, 5).encode()};
    const auto tv = compileStream(g, Range(0, g.rows - 1, 1), vbody);
    const ReplayProgram &pv = tv->programs[0];
    ASSERT_EQ(pv.instrs.size(), 2u);
    EXPECT_EQ(pv.instrs[0].kind, ReplayProgram::Kind::VRun);
    EXPECT_EQ(pv.instrs[0].count, 3u);
    EXPECT_EQ(pv.instrs[1].count, 1u);
    EXPECT_FALSE(pv.uniformXb);
    EXPECT_EQ(pv.workLogicV, 4u);
}

TEST(ReplayProgramCompile, SwitchOffLeavesTraceUncompiled)
{
    const Geometry g = testGeometry();
    std::vector<Word> ops = {
        MicroOp::crossbarMask(Range(0, g.numCrossbars - 1, 1))
            .encode(),
        MicroOp::rowMask(Range(0, g.rows - 1, 1)).encode(),
        initH(g, Gate::Init1, 0)};
    Simulator sim(g);
    auto trace = prepareInterpreted(sim, ops, true);
    ASSERT_NE(trace, nullptr);
    EXPECT_TRUE(trace->programs.empty());
    // The switch is read at freeze: once it is back on, the NEXT
    // prepare compiles.
    auto trace2 = sim.prepareTrace(ops.data(), ops.size(), true);
    ASSERT_NE(trace2, nullptr);
    EXPECT_EQ(trace2->programs.size(), trace2->used);
}

TEST(ReplayProgramStats, RecordNMatchesRepeatedRecord)
{
    Stats a, b;
    a.recordN(OpClass::Write, 5);
    a.recordN(OpClass::LogicH, 0);
    for (int i = 0; i < 5; ++i)
        b.record(OpClass::Write);
    EXPECT_EQ(a, b);
}
