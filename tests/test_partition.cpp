/**
 * @file
 * Tests for the half-gates expansion (paper §III-D, Table I):
 * per-partition opcodes, deduced transistor selects, dynamic sections,
 * and rejection of patterns outside the restricted partition model.
 */
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/error.hpp"
#include "uarch/partition.hpp"

using namespace pypim;

namespace
{

Geometry
geo()
{
    return testGeometry();  // 32 partitions, 32-column partitions
}

/** Column address of (partition, intra index) for the test geometry. */
uint32_t
col(uint32_t part, uint32_t idx)
{
    return part * 32 + idx;
}

const Section *
sectionWithOutput(const HalfGates &hg, uint32_t outCol)
{
    for (uint32_t i = 0; i < hg.numSections; ++i)
        if (hg.sections[i].outCol == static_cast<int32_t>(outCol))
            return &hg.sections[i];
    return nullptr;
}

} // namespace

TEST(Partition, SingleIntraPartitionGate)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(3, 0), col(3, 1), col(3, 2), 3, 0);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 1u);
    // Partition 3 applies all three voltages: opcode (InA, InB) -> Out.
    EXPECT_EQ(hg.opcodes[3],
              halfgate::inA | halfgate::inB | halfgate::out);
    const Section *sec = sectionWithOutput(hg, col(3, 2));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->numIn, 2u);
}

TEST(Partition, CrossPartitionGateLeftToRight)
{
    // Paper Fig. 8(c): inputs in partition 0 (InA) and 1 (InB), output
    // in partition 1 (span [0, 1]).
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(1, 1), col(1, 3), 1, 0);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.opcodes[0], halfgate::inA);
    EXPECT_EQ(hg.opcodes[1], halfgate::inB | halfgate::out);
    // Transistor 0 (between partitions 0 and 1) must conduct; the one
    // right of partition 1 must be cut (partition 1 has an Out half).
    EXPECT_TRUE(hg.conducting[0]);
    EXPECT_FALSE(hg.conducting[1]);
    const Section *sec = sectionWithOutput(hg, col(1, 3));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->begin, 0u);
    EXPECT_EQ(sec->end, 2u);
    EXPECT_EQ(sec->numIn, 2u);
}

TEST(Partition, RightToLeftGate)
{
    // Inputs in partition 5, output in partition 2 (reverse direction).
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(5, 0), col(5, 1), col(2, 3), 2, 0);
    const HalfGates hg = expandLogicH(op, g);
    const Section *sec = sectionWithOutput(hg, col(2, 3));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->begin, 2u);
    EXPECT_EQ(sec->end, 6u);
    // Cut left of partition 2 and right of partition 5.
    EXPECT_FALSE(hg.conducting[1]);
    EXPECT_FALSE(hg.conducting[5]);
    EXPECT_TRUE(hg.conducting[2]);
    EXPECT_TRUE(hg.conducting[3]);
    EXPECT_TRUE(hg.conducting[4]);
}

TEST(Partition, FullyParallelPattern)
{
    // Per-partition gate repeated across all 32 partitions (paper
    // Fig. 7(b)): one section per partition.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(0, 2), 31, 1);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 32u);
    for (uint32_t t = 0; t + 1 < 32; ++t)
        EXPECT_FALSE(hg.conducting[t]) << "transistor " << t;
    uint32_t active = 0;
    for (uint32_t i = 0; i < hg.numSections; ++i)
        if (hg.sections[i].active())
            ++active;
    EXPECT_EQ(active, 32u);
}

TEST(Partition, SemiParallelPattern)
{
    // Paper Fig. 7(c)-style: gates (p -> p+2) repeated with stride 4:
    // (0 -> 2), (4 -> 6), ..., non-intersecting sections.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(2, 1), col(2, 3), 30, 4);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 8u);
    for (uint32_t k = 0; k < 8; ++k) {
        const Section *sec = sectionWithOutput(hg, col(4 * k + 2, 3));
        ASSERT_NE(sec, nullptr) << "gate " << k;
        EXPECT_EQ(sec->numIn, 2u);
        EXPECT_EQ(sec->inCol[0], static_cast<int32_t>(col(4 * k, 0)));
        EXPECT_EQ(sec->inCol[1], static_cast<int32_t>(col(4 * k + 2, 1)));
    }
}

TEST(Partition, PeriodicInitPattern)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Init1, 0, 0, col(0, 7), 31, 1);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 32u);
    for (uint32_t p = 0; p < 32; ++p)
        EXPECT_EQ(hg.opcodes[p], halfgate::out);
}

TEST(Partition, NotGateHasSingleInputHalf)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Not, col(4, 0), col(4, 0), col(7, 1), 7, 0);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.opcodes[4], halfgate::inA);
    EXPECT_EQ(hg.opcodes[7], halfgate::out);
    const Section *sec = sectionWithOutput(hg, col(7, 1));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->numIn, 1u);
}

TEST(Partition, RejectsInnerInputOutsideSpan)
{
    // inB strictly outside [min(pA, pOut), max(pA, pOut)] cannot be
    // expressed by the deduced transistor selects.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(2, 0), col(9, 1), col(5, 3), 5, 0);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
    // The lazily formatted message still carries the operands.
    try {
        expandLogicH(op, g);
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("inB partition 9 outside "
                                             "the gate span [2, 5]"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Partition, ChecksFormatTheirMessageOnlyOnFailure)
{
    int built = 0;
    const auto msg = [&] {
        ++built;
        return std::string("formatted ") + std::to_string(built);
    };
    panicIf(false, msg);
    fatalIf(false, msg);
    EXPECT_EQ(built, 0);
    EXPECT_THROW(panicIf(true, msg), InternalError);
    EXPECT_THROW(fatalIf(true, msg), Error);
    EXPECT_EQ(built, 2);
    EXPECT_THROW(fatalIf(true, "literal"), Error);
}

TEST(Partition, RejectsOverlappingRepetition)
{
    // Span is 3 partitions but the stride is 2: repeated gates overlap.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(2, 1), col(2, 3), 30, 2);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
}

TEST(Partition, RejectsRepetitionLeavingRange)
{
    const Geometry g = geo();
    // pEnd = 33 > 31: repeated gate would leave the partition range
    // (pEnd itself is range-checked through the claimed partitions).
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(0, 2), 33, 1);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
}

TEST(Partition, RejectsStepNotDividingSpan)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(0, 2), 31, 3);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
}

TEST(Partition, GateCountsMatchParallelismForms)
{
    const Geometry g = geo();
    // Serial (Fig. 7(a)): one gate.
    EXPECT_EQ(expandLogicH(MicroOp::logicH(Gate::Nor, col(0, 0),
                                           col(11, 1), col(31, 2), 31, 0),
                           g).numGates, 1u);
    // Parallel (Fig. 7(b)): N gates.
    EXPECT_EQ(expandLogicH(MicroOp::logicH(Gate::Nor, col(0, 0),
                                           col(0, 1), col(0, 2), 31, 1),
                           g).numGates, 32u);
    // Semi-parallel (Fig. 7(c)): N/4 gates at stride 4.
    EXPECT_EQ(expandLogicH(MicroOp::logicH(Gate::Nor, col(0, 0),
                                           col(1, 1), col(1, 2), 29, 4),
                           g).numGates, 8u);
}
