/**
 * @file
 * Bit-level crossbar semantics: stateful logic (output switches only
 * 1 -> 0), strided read/write, vertical ops, row masking — every
 * behavioural test runs under BOTH storage representations
 * (TEST_P over XbarStorage), so the dense slab stays the oracle the
 * paged mode is continuously checked against. The PagedCrossbar suite
 * adds the storage-specific surface: zero-block elision, transparent
 * densification, block-boundary addressing, compact() re-elision and
 * copy-on-write snapshot isolation.
 */
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "sim/crossbar.hpp"
#include "uarch/partition.hpp"

using namespace pypim;

namespace
{

HalfGates
gateOn(const Geometry &geo, Gate g, uint32_t a, uint32_t b,
       uint32_t out)
{
    const uint32_t pOut = out / geo.partitionWidth();
    return expandLogicH(MicroOp::logicH(g, a, b, out, pOut, 0), geo);
}

class CrossbarTest : public ::testing::TestWithParam<XbarStorage>
{
  protected:
    CrossbarTest()
        : geo(testGeometry()),
          xb(geo, GetParam()),
          fullMask(Range::all(geo.rows).expand(geo.rows))
    {
    }

    HalfGates
    gate(Gate g, uint32_t a, uint32_t b, uint32_t out)
    {
        return gateOn(geo, g, a, b, out);
    }

    Geometry geo;
    Crossbar xb;
    std::vector<uint64_t> fullMask;
};

} // namespace

TEST_P(CrossbarTest, NorTruthTable)
{
    // Columns 0, 1 as inputs; column 2 as output; rows 0..3 hold the
    // four input combinations.
    for (uint32_t r = 0; r < 4; ++r) {
        xb.setBit(r, 0, r & 1);
        xb.setBit(r, 1, (r >> 1) & 1);
        xb.setBit(r, 2, true);  // INIT1
    }
    xb.logicH(gate(Gate::Nor, 0, 1, 2), fullMask);
    EXPECT_TRUE(xb.bit(0, 2));    // NOR(0,0) = 1
    EXPECT_FALSE(xb.bit(1, 2));   // NOR(1,0) = 0
    EXPECT_FALSE(xb.bit(2, 2));   // NOR(0,1) = 0
    EXPECT_FALSE(xb.bit(3, 2));   // NOR(1,1) = 0
}

TEST_P(CrossbarTest, StatefulOutputOnlySwitchesDown)
{
    // Output NOT initialised to 1: NOR(0,0) cannot switch it up.
    xb.setBit(0, 0, false);
    xb.setBit(0, 1, false);
    xb.setBit(0, 2, false);  // stale 0
    xb.logicH(gate(Gate::Nor, 0, 1, 2), fullMask);
    EXPECT_FALSE(xb.bit(0, 2)) << "stateful logic must not set 0 -> 1";
}

TEST_P(CrossbarTest, NotGate)
{
    xb.setBit(0, 5, true);
    xb.setBit(1, 5, false);
    xb.setBit(0, 9, true);
    xb.setBit(1, 9, true);
    xb.logicH(gate(Gate::Not, 5, 5, 9), fullMask);
    EXPECT_FALSE(xb.bit(0, 9));
    EXPECT_TRUE(xb.bit(1, 9));
}

TEST_P(CrossbarTest, InitGates)
{
    xb.setBit(0, 7, false);
    xb.logicH(gate(Gate::Init1, 0, 0, 7), fullMask);
    EXPECT_TRUE(xb.bit(0, 7));
    xb.logicH(gate(Gate::Init0, 0, 0, 7), fullMask);
    EXPECT_FALSE(xb.bit(0, 7));
}

TEST_P(CrossbarTest, RowMaskSkipsDeselectedRows)
{
    // Only even rows selected (isolation voltage on odd rows).
    const auto mask = Range(0, geo.rows - 2, 2).expand(geo.rows);
    for (uint32_t r = 0; r < geo.rows; ++r) {
        xb.setBit(r, 0, true);
        xb.setBit(r, 2, true);
    }
    xb.logicH(gate(Gate::Not, 0, 0, 2), mask);
    for (uint32_t r = 0; r < geo.rows; ++r)
        EXPECT_EQ(xb.bit(r, 2), r % 2 == 1) << "row " << r;
}

TEST_P(CrossbarTest, ParallelPatternActsPerPartition)
{
    // NOR(slot0, slot1) -> slot2 in all 32 partitions in one op.
    const HalfGates hg = expandLogicH(
        MicroOp::logicH(Gate::Nor, geo.column(0, 0), geo.column(1, 0),
                        geo.column(2, 0), geo.partitions - 1, 1), geo);
    xb.writeRow(0, 0x0F0F0F0F, 3);
    xb.writeRow(1, 0x00FF00FF, 3);
    xb.writeRow(2, 0xFFFFFFFF, 3);  // INIT1 all bits
    xb.logicH(hg, fullMask);
    EXPECT_EQ(xb.read(2, 3), ~(0x0F0F0F0Fu | 0x00FF00FFu));
}

TEST_P(CrossbarTest, StridedReadWriteRoundTrip)
{
    xb.writeRow(4, 0xCAFEBABE, 10);
    EXPECT_EQ(xb.read(4, 10), 0xCAFEBABEu);
    // Bit p of the word lives in partition p (paper Fig. 6).
    EXPECT_EQ(xb.bit(10, geo.column(4, 1)), (0xCAFEBABEu >> 1) & 1);
    EXPECT_EQ(xb.bit(10, geo.column(4, 31)), (0xCAFEBABEu >> 31) & 1);
}

TEST_P(CrossbarTest, MaskedWriteAffectsSelectedRowsOnly)
{
    const auto mask = Range(8, 24, 8).expand(geo.rows);
    xb.write(3, 0x12345678, mask);
    EXPECT_EQ(xb.read(3, 8), 0x12345678u);
    EXPECT_EQ(xb.read(3, 16), 0x12345678u);
    EXPECT_EQ(xb.read(3, 24), 0x12345678u);
    EXPECT_EQ(xb.read(3, 9), 0u);
}

TEST_P(CrossbarTest, WriteStripeMatchesIndividualWrites)
{
    // One stripe writing three slots must equal three single writes
    // under the same mask — the replay form of merged Write ops.
    Crossbar ref(geo, GetParam());
    const auto mask = Range(4, 28, 4).expand(geo.rows);
    const StripeWrite ws[] = {
        {2, 0x11112222u}, {5, 0xDEADBEEFu}, {9, 0x0F0F0F0Fu}};
    for (const StripeWrite &w : ws)
        ref.write(w.slot, w.value, mask);
    xb.writeStripe(ws, mask);
    EXPECT_TRUE(xb.sameState(ref));
    EXPECT_EQ(xb.read(5, 8), 0xDEADBEEFu);
    EXPECT_EQ(xb.read(5, 9), 0u);
}

TEST_P(CrossbarTest, VerticalNotTransfersBetweenRows)
{
    // Vertical NOT moves (inverted) slot data from row 2 to row 40.
    xb.writeRow(6, 0xA5A5A5A5, 2);
    xb.writeRow(6, 0xFFFFFFFF, 40);  // INIT1 destination
    xb.logicV(Gate::Not, 2, 40, 6);
    EXPECT_EQ(xb.read(6, 40), ~0xA5A5A5A5u);
    // Source row unchanged.
    EXPECT_EQ(xb.read(6, 2), 0xA5A5A5A5u);
}

TEST_P(CrossbarTest, VerticalInit)
{
    xb.logicV(Gate::Init1, 0, 17, 5);
    EXPECT_EQ(xb.read(5, 17), 0xFFFFFFFFu);
    xb.logicV(Gate::Init0, 0, 17, 5);
    EXPECT_EQ(xb.read(5, 17), 0u);
}

TEST_P(CrossbarTest, VerticalNotRespectsStatefulSemantics)
{
    xb.writeRow(6, 0xFFFFFFFF, 2);
    xb.writeRow(6, 0x0000FFFF, 40);  // half stale-0 destination
    xb.logicV(Gate::Not, 2, 40, 6);
    // NOT(1) = 0 everywhere; stale zeros stay zero.
    EXPECT_EQ(xb.read(6, 40), 0u);
    xb.writeRow(6, 0x00000000, 2);
    xb.writeRow(6, 0x0000FFFF, 40);
    xb.logicV(Gate::Not, 2, 40, 6);
    // NOT(0) = 1, but only pre-initialised cells can show it.
    EXPECT_EQ(xb.read(6, 40), 0x0000FFFFu);
}

TEST_P(CrossbarTest, SnapshotRestoreRoundTrip)
{
    xb.writeRow(3, 0xABCD1234, 7);
    const Crossbar::Snapshot snap = xb.snapshot();
    xb.writeRow(3, 0x55555555, 7);
    xb.writeRow(4, 0xFFFFFFFF, 8);
    EXPECT_FALSE(xb.sameState(snap));
    EXPECT_EQ(snap.read(3, 7), 0xABCD1234u);  // image is frozen
    xb.restore(snap);
    EXPECT_TRUE(xb.sameState(snap));
    EXPECT_EQ(xb.read(3, 7), 0xABCD1234u);
    EXPECT_EQ(xb.read(4, 8), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Storage, CrossbarTest,
    ::testing::Values(XbarStorage::Dense, XbarStorage::Paged),
    [](const auto &info) { return xbarStorageName(info.param); });

// ---------------------------------------------------------------------
// Paged-specific storage semantics. A taller geometry gives each
// column multiple 512-row blocks, so block-table addressing, elision
// and boundary handling are all exercised.

namespace
{

Geometry
tallGeometry()
{
    Geometry g = testGeometry();
    g.rows = 2048;  // 32 words = 4 blocks per column
    return g;
}

/** 64-bit word from the 32-bit test RNG. */
uint64_t
word64(Rng &rng)
{
    return (static_cast<uint64_t>(rng.word()) << 32) | rng.word();
}

} // namespace

TEST(PagedCrossbar, UntouchedCrossbarIsResidentFree)
{
    const Geometry geo = tallGeometry();
    const Crossbar xb(geo, XbarStorage::Paged);
    const StorageGauges g = xb.storageGauges();
    EXPECT_EQ(g.blocksPresent, 0u);
    EXPECT_EQ(g.residentBytes, 0u) << "lazy table/pool: an untouched "
                                      "crossbar must cost no bytes";
    // Reads of never-touched state are architectural zeros.
    EXPECT_EQ(xb.read(0, 0), 0u);
    EXPECT_EQ(xb.read(3, geo.rows - 1), 0u);
    EXPECT_FALSE(xb.bit(600, 17));
}

TEST(PagedCrossbar, ZeroPreservingOpsStayElided)
{
    const Geometry geo = tallGeometry();
    Crossbar xb(geo, XbarStorage::Paged);
    const auto fullMask = Range::all(geo.rows).expand(geo.rows);
    // INIT0 and NOR/NOT over all-absent inputs into an absent output
    // are algebra on zeros: nothing may densify.
    xb.logicH(gateOn(geo, Gate::Init0, 0, 0, 9), fullMask);
    xb.logicH(gateOn(geo, Gate::Nor, 0, 1, 9), fullMask);
    xb.logicH(gateOn(geo, Gate::Not, 2, 2, 9), fullMask);
    xb.write(4, 0, fullMask);  // writing zeros is zero-preserving too
    EXPECT_EQ(xb.storageGauges().blocksPresent, 0u);
    // ... but the architectural state is what dense would hold: NOR
    // over a stale-0 output stays 0 even though NOR(0,0) = 1.
    EXPECT_FALSE(xb.bit(0, 9));
}

TEST(PagedCrossbar, DensificationTouchesOnlyMaskedBlocks)
{
    const Geometry geo = tallGeometry();
    Crossbar xb(geo, XbarStorage::Paged);
    // Rows 512..1023 are exactly block 1 of each touched column.
    const auto mask = Range(512, 1023, 1).expand(geo.rows);
    xb.write(5, 0xFFFFFFFFu, mask);
    const StorageGauges g = xb.storageGauges();
    // One 32-bit slot = 32 columns; each densified only in block 1.
    EXPECT_EQ(g.blocksPresent, 32u);
    EXPECT_EQ(xb.read(5, 512), 0xFFFFFFFFu);
    EXPECT_EQ(xb.read(5, 1023), 0xFFFFFFFFu);
    EXPECT_EQ(xb.read(5, 511), 0u);
    EXPECT_EQ(xb.read(5, 1024), 0u);
}

TEST(PagedCrossbar, BlockBoundaryRowsMatchDense)
{
    const Geometry geo = tallGeometry();
    Crossbar paged(geo, XbarStorage::Paged);
    Crossbar dense(geo, XbarStorage::Dense);
    // Straddle every 512-row block seam, including the last row.
    for (const uint32_t row : {0u, 511u, 512u, 1023u, 1024u, 1535u,
                               1536u, 2047u}) {
        paged.writeRow(2, 0xC0FFEE00u | row, row);
        dense.writeRow(2, 0xC0FFEE00u | row, row);
    }
    const auto seam = Range(511, 1536, 1).expand(geo.rows);
    paged.logicH(gateOn(geo, Gate::Init1, 0, 0, 33), seam);
    dense.logicH(gateOn(geo, Gate::Init1, 0, 0, 33), seam);
    paged.logicV(Gate::Not, 511, 512, 2);
    dense.logicV(Gate::Not, 511, 512, 2);
    EXPECT_TRUE(paged.sameState(dense));
    EXPECT_EQ(paged.read(2, 2047), 0xC0FFEE00u | 2047u);
}

TEST(PagedCrossbar, CompactReElidesDecayedBlocks)
{
    const Geometry geo = tallGeometry();
    Crossbar xb(geo, XbarStorage::Paged);
    const auto mask = Range(0, 511, 1).expand(geo.rows);
    // Densify block 0 of slot 6's columns with ones...
    const HalfGates init1 = expandLogicH(
        MicroOp::logicH(Gate::Init1, 0, 0, geo.column(6, 0),
                        geo.partitions - 1, 1), geo);
    xb.logicH(init1, mask);
    const uint64_t present = xb.storageGauges().blocksPresent;
    EXPECT_EQ(present, 32u);
    EXPECT_EQ(xb.compact(), 0u) << "live blocks must survive compact";
    // ... decay them back to zero: the blocks stay materialised (ops
    // never re-elide inline) until an explicit compact() sweep.
    const HalfGates init0 = expandLogicH(
        MicroOp::logicH(Gate::Init0, 0, 0, geo.column(6, 0),
                        geo.partitions - 1, 1), geo);
    xb.logicH(init0, mask);
    EXPECT_EQ(xb.storageGauges().blocksPresent, present);
    EXPECT_EQ(xb.compact(), present);
    const StorageGauges after = xb.storageGauges();
    EXPECT_EQ(after.blocksPresent, 0u);
    EXPECT_EQ(after.blocksElided, after.blocksTotal);
    // Round trip: the crossbar is architecturally unchanged and can
    // densify again.
    EXPECT_EQ(xb.read(6, 100), 0u);
    xb.writeRow(6, 0x5A5A5A5Au, 100);
    EXPECT_EQ(xb.read(6, 100), 0x5A5A5A5Au);
}

TEST(PagedCrossbar, SnapshotIsCopyOnWriteAndIsolated)
{
    const Geometry geo = tallGeometry();
    Crossbar xb(geo, XbarStorage::Paged);
    xb.writeRow(1, 0x11223344u, 10);
    xb.writeRow(1, 0x99887766u, 700);  // second block
    const Crossbar::Snapshot snap = xb.snapshot();
    {
        // Snapshot shares every present block rather than copying it.
        const StorageGauges g = xb.storageGauges();
        EXPECT_GT(g.cowShared, 0u);
        EXPECT_EQ(g.cowShared, g.blocksPresent);
    }
    // Writes after the snapshot clone only the touched blocks; the
    // frozen image must not see them.
    xb.writeRow(1, 0xFFFFFFFFu, 10);
    EXPECT_EQ(snap.read(1, 10), 0x11223344u);
    EXPECT_EQ(snap.read(1, 700), 0x99887766u);
    EXPECT_EQ(xb.read(1, 10), 0xFFFFFFFFu);
    EXPECT_FALSE(xb.sameState(snap));
    // Snapshot copies are independent refcounted images.
    const Crossbar::Snapshot copy = snap;
    xb.restore(copy);
    EXPECT_TRUE(xb.sameState(snap));
    EXPECT_EQ(xb.read(1, 10), 0x11223344u);
}

TEST(PagedCrossbar, FuzzedSparseParityWithDense)
{
    const Geometry geo = tallGeometry();
    Crossbar paged(geo, XbarStorage::Paged);
    Crossbar dense(geo, XbarStorage::Dense);
    Rng rng(20240604);
    const uint32_t maskWords = (geo.rows + 63) / 64;
    std::vector<uint64_t> mask(maskWords);
    const uint32_t slots = geo.slots();
    for (uint32_t iter = 0; iter < 400; ++iter) {
        // Sparse random row mask: mostly zero words, so ops keep
        // hitting absent/present block mixtures.
        for (auto &w : mask)
            w = rng.word() % 4 == 0 ? word64(rng) : 0;
        const uint32_t kind = rng.word() % 8;
        if (kind < 2) {
            const uint32_t slot = rng.word() % slots;
            const uint32_t v = rng.word();
            paged.write(slot, v, mask);
            dense.write(slot, v, mask);
        } else if (kind < 5) {
            const Gate g = kind == 2   ? Gate::Nor
                           : kind == 3 ? Gate::Init1
                                       : Gate::Init0;
            // Inputs must live in the gate's partition span: pick one
            // partition and three intra-partition columns.
            const uint32_t pw = geo.partitionWidth();
            const uint32_t base = (rng.word() % geo.partitions) * pw;
            const uint32_t a = base + rng.word() % pw;
            const uint32_t b = base + rng.word() % pw;
            const uint32_t out = base + rng.word() % pw;
            const HalfGates hg = gateOn(geo, g, a, b, out);
            paged.logicH(hg, mask);
            dense.logicH(hg, mask);
        } else if (kind < 6) {
            const uint32_t slot = rng.word() % slots;
            const uint32_t src = rng.word() % geo.rows;
            const uint32_t dst = rng.word() % geo.rows;
            if (src == dst)
                continue;
            paged.logicV(Gate::Not, src, dst, slot);
            dense.logicV(Gate::Not, src, dst, slot);
        } else if (kind == 6) {
            const uint32_t slot = rng.word() % slots;
            const uint32_t row = rng.word() % geo.rows;
            const uint32_t v = rng.word();
            paged.writeRow(slot, v, row);
            dense.writeRow(slot, v, row);
        } else {
            // Compaction and a snapshot/restore no-op round trip must
            // both be architecturally invisible.
            paged.compact();
            const Crossbar::Snapshot snap = paged.snapshot();
            EXPECT_TRUE(paged.sameState(snap));
            paged.restore(snap);
        }
        if (iter % 32 == 0)
            ASSERT_TRUE(paged.sameState(dense)) << "iter " << iter;
    }
    ASSERT_TRUE(paged.sameState(dense));
    // Spot-check strided readback through both paths.
    for (uint32_t slot = 0; slot < slots; slot += 5)
        for (uint32_t row = 0; row < geo.rows; row += 97)
            ASSERT_EQ(paged.read(slot, row), dense.read(slot, row))
                << "slot " << slot << " row " << row;
}

// Contiguous column runs. A run is allocated only when a full-mask op
// materialises every block of an all-absent column; the full-mask
// kernels then work on one span per column. These tests pin when a
// column is (and is not) a run, that every invalidation site drops
// the run, and that the result always matches the dense oracle.

namespace
{

/** A full-width gate over every partition of the given slots. */
HalfGates
slotGate(const Geometry &geo, Gate g, uint32_t a, uint32_t b,
         uint32_t out)
{
    return expandLogicH(MicroOp::logicH(g, geo.column(a, 0),
                                        geo.column(b, 0),
                                        geo.column(out, 0),
                                        geo.partitions - 1, 1),
                        geo);
}

/** Every plane column of @p slot is (or is not) a run. */
bool
slotRuns(const Crossbar &xb, uint32_t slot, bool expect)
{
    const Geometry &geo = xb.geometry();
    for (uint32_t p = 0; p < geo.wordBits; ++p)
        if (xb.columnIsRun(geo.column(slot, p)) != expect)
            return false;
    return true;
}

} // namespace

TEST(PagedCrossbar, FullMaskDensificationAllocatesRuns)
{
    const Geometry geo = tallGeometry();
    const uint32_t blocks = 4;
    Crossbar paged(geo, XbarStorage::Paged);
    Crossbar dense(geo, XbarStorage::Dense);
    auto both = [&](auto &&op) {
        op(paged);
        op(dense);
    };
    // INIT1 over an all-absent slot: every column becomes one run.
    both([&](Crossbar &x) {
        x.logicHFull(slotGate(geo, Gate::Init1, 0, 0, 6));
    });
    EXPECT_TRUE(slotRuns(paged, 6, true));
    EXPECT_EQ(paged.storageGauges().blocksPresent, 32u * blocks);
    // A full write: set planes densify as runs, clear planes stay
    // absent (and so are not runs).
    both([&](Crossbar &x) { x.writeFull(7, 0x0000FFFFu); });
    for (uint32_t p = 0; p < geo.wordBits; ++p)
        EXPECT_EQ(paged.columnIsRun(geo.column(7, p)), p < 16)
            << "plane " << p;
    EXPECT_EQ(paged.storageGauges().blocksPresent, 48u * blocks);
    // Fused INIT1+NOR into an absent slot, and a stateful NOR into a
    // run output reading run and absent inputs.
    both([&](Crossbar &x) {
        x.logicHFusedInit1Full(slotGate(geo, Gate::Nor, 6, 7, 8));
        x.logicHFull(slotGate(geo, Gate::Nor, 7, 9, 6));
    });
    EXPECT_TRUE(slotRuns(paged, 8, true));
    EXPECT_TRUE(paged.sameState(dense));
    EXPECT_EQ(paged.read(6, 1500), 0xFFFF0000u);
    EXPECT_EQ(paged.read(8, 3), 0u);
}

TEST(PagedCrossbar, BulkScatterAllocatesRunsOnlyForAllNonZeroPlanes)
{
    const Geometry geo = tallGeometry();
    Crossbar paged(geo, XbarStorage::Paged);
    Crossbar dense(geo, XbarStorage::Dense);
    // Bit 0 is set in every row; bit 1 only in rows of blocks 0..2,
    // so plane 1 keeps block 3 absent; bit 2 never.
    std::vector<uint32_t> values(geo.rows);
    for (uint32_t r = 0; r < geo.rows; ++r)
        values[r] = 1u | (r < 1536 && r % 3 == 0 ? 2u : 0u);
    paged.scatterRows(4, 0, geo.rows, values.data());
    dense.scatterRows(4, 0, geo.rows, values.data());
    EXPECT_TRUE(paged.columnIsRun(geo.column(4, 0)));
    EXPECT_FALSE(paged.columnIsRun(geo.column(4, 1)));
    EXPECT_FALSE(paged.columnIsRun(geo.column(4, 2)));
    // Exactly the blocks the per-block path would materialise.
    EXPECT_EQ(paged.storageGauges().blocksPresent, 4u + 3u);
    // A scatter that misses a block of the column allocates no run.
    paged.scatterRows(5, 0, 1024, values.data());
    dense.scatterRows(5, 0, 1024, values.data());
    EXPECT_FALSE(paged.columnIsRun(geo.column(5, 0)));
    EXPECT_EQ(paged.storageGauges().blocksPresent, 7u + 2u + 2u);
    EXPECT_TRUE(paged.sameState(dense));
}

TEST(PagedCrossbar, RunsDropOnCompactResetAndReuseThePool)
{
    const Geometry geo = tallGeometry();
    Crossbar paged(geo, XbarStorage::Paged);
    Crossbar dense(geo, XbarStorage::Dense);
    const HalfGates init1 = slotGate(geo, Gate::Init1, 0, 0, 6);
    const HalfGates init0 = slotGate(geo, Gate::Init0, 0, 0, 6);
    paged.logicHFull(init1);
    const uint64_t resident = paged.storageGauges().residentBytes;
    const uint64_t runBytes = 32u * 4u * Crossbar::kBlockWords * 8u;
    // Decay to zero in place (the runs survive: ops never re-elide),
    // then compact: every block is elided and no run is left.
    paged.logicHFull(init0);
    EXPECT_TRUE(slotRuns(paged, 6, true));
    EXPECT_EQ(paged.compact(), 32u * 4u);
    EXPECT_TRUE(slotRuns(paged, 6, false));
    // Re-densifying reuses the runs freed whole: no block words are
    // appended (only the free list's own capacity remains).
    paged.logicHFull(init1);
    EXPECT_TRUE(slotRuns(paged, 6, true));
    const uint64_t reused = paged.storageGauges().residentBytes;
    EXPECT_LT(reused - resident, runBytes);
    // resetState drops every run and block; the same holds after it.
    paged.resetState();
    EXPECT_TRUE(slotRuns(paged, 6, false));
    EXPECT_EQ(paged.storageGauges().blocksPresent, 0u);
    paged.logicHFull(init1);
    EXPECT_TRUE(slotRuns(paged, 6, true));
    EXPECT_EQ(paged.storageGauges().residentBytes, reused);
    // A partial compact (one decayed block of a run) drops the run.
    const auto firstBlock = Range(0, 511, 1).expand(geo.rows);
    paged.logicH(slotGate(geo, Gate::Init0, 0, 0, 6), firstBlock);
    EXPECT_EQ(paged.compact(), 32u);
    EXPECT_TRUE(slotRuns(paged, 6, false));
    dense.logicHFull(init1);
    dense.logicH(slotGate(geo, Gate::Init0, 0, 0, 6), firstBlock);
    EXPECT_TRUE(paged.sameState(dense));
    // The per-block path keeps computing correctly on that column.
    paged.logicHFull(slotGate(geo, Gate::Nor, 2, 3, 6));
    dense.logicHFull(slotGate(geo, Gate::Nor, 2, 3, 6));
    paged.logicHFusedInit1Full(slotGate(geo, Gate::Not, 6, 6, 9));
    dense.logicHFusedInit1Full(slotGate(geo, Gate::Not, 6, 6, 9));
    EXPECT_TRUE(paged.sameState(dense));
}

TEST(PagedCrossbar, SharedRunIsNeverWrittenInPlace)
{
    const Geometry geo = tallGeometry();
    Crossbar paged(geo, XbarStorage::Paged);
    paged.logicHFull(slotGate(geo, Gate::Init1, 0, 0, 6));
    paged.writeFull(7, 0x12345678u);
    const Crossbar::Snapshot snap = paged.snapshot();
    const uint64_t present = paged.storageGauges().blocksPresent;
    // Every full-mask kernel over a shared run must clone instead.
    paged.logicHFull(slotGate(geo, Gate::Nor, 7, 7, 6));
    paged.writeFull(7, 0u);
    EXPECT_EQ(snap.read(6, 1000), 0xFFFFFFFFu);
    EXPECT_EQ(snap.read(7, 2047), 0x12345678u);
    EXPECT_EQ(paged.read(6, 1000), ~0x12345678u);
    EXPECT_EQ(paged.read(7, 2047), 0u);
    // The clones replaced the written runs' table entries; a run the
    // NOR left untouched (both inputs absent) stays a shared run.
    for (uint32_t p = 0; p < geo.wordBits; ++p) {
        const bool written = (0x12345678u >> p) & 1;
        EXPECT_EQ(paged.columnIsRun(geo.column(6, p)), !written)
            << "plane " << p;
        EXPECT_FALSE(paged.columnIsRun(geo.column(7, p)));
    }
    EXPECT_EQ(paged.storageGauges().blocksPresent, present);
    // loadBlock over a shared run clones too, and drops the run.
    paged.restore(snap);
    EXPECT_TRUE(slotRuns(paged, 6, false)) << "restore drops runs";
    Crossbar fresh(geo, XbarStorage::Paged);
    fresh.logicHFull(slotGate(geo, Gate::Init1, 0, 0, 6));
    const Crossbar::Snapshot freshSnap = fresh.snapshot();
    const uint64_t words[Crossbar::kBlockWords] = {0x5A};
    fresh.loadBlock(geo.column(6, 3), 1, words, Crossbar::kBlockWords);
    EXPECT_FALSE(fresh.columnIsRun(geo.column(6, 3)));
    EXPECT_TRUE(fresh.columnIsRun(geo.column(6, 4)));
    EXPECT_EQ(freshSnap.read(6, 512), 0xFFFFFFFFu);
    EXPECT_EQ(fresh.read(6, 512), ~(1u << 3));
    EXPECT_EQ(fresh.read(6, 513), 0xFFFFFFFFu);
}

TEST(PagedCrossbar, BlockByBlockDensificationStaysPerBlock)
{
    const Geometry geo = tallGeometry();
    Crossbar paged(geo, XbarStorage::Paged);
    Crossbar dense(geo, XbarStorage::Dense);
    // Densify every block of slots 2 and 3 one partial mask at a
    // time: fully present, but not allocated as a run.
    Rng rng(99);
    for (uint32_t b = 0; b < 4; ++b) {
        const auto mask =
            Range(b * 512, b * 512 + 511, 1).expand(geo.rows);
        for (Crossbar *x : {&paged, &dense}) {
            x->logicH(slotGate(geo, Gate::Init1, 0, 0, 2), mask);
            x->write(3, 0xF0F0F0F0u, mask);
        }
    }
    EXPECT_TRUE(slotRuns(paged, 2, false));
    EXPECT_EQ(paged.storageGauges().blocksPresent, (32u + 16u) * 4u);
    for (uint32_t r = 0; r < geo.rows; r += 7) {
        const uint32_t v = rng.word();
        paged.writeRow(4, v, r);
        dense.writeRow(4, v, r);
    }
    // Full-mask ops mixing per-block columns with run outputs: run
    // outputs over per-block inputs, one input of each kind, and a
    // per-block output over a run input.
    const auto both = [&](bool fused, Gate g, uint32_t a, uint32_t b,
                          uint32_t out) {
        const HalfGates hg = slotGate(geo, g, a, b, out);
        for (Crossbar *x : {&paged, &dense}) {
            if (fused)
                x->logicHFusedInit1Full(hg);
            else
                x->logicHFull(hg);
        }
        EXPECT_TRUE(paged.sameState(dense)) << "out slot " << out;
    };
    both(true, Gate::Nor, 3, 4, 5);
    both(false, Gate::Init1, 0, 0, 6);
    both(false, Gate::Nor, 5, 4, 6);
    both(false, Gate::Nor, 4, 5, 2);
    both(false, Gate::Nor, 2, 4, 5);
    both(false, Gate::Init0, 0, 0, 3);
    EXPECT_TRUE(slotRuns(paged, 5, true));
    EXPECT_TRUE(slotRuns(paged, 6, true));
    EXPECT_TRUE(slotRuns(paged, 2, false));
}
