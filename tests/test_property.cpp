/**
 * @file
 * Property-based sweeps over the full stack, parameterised on the RNG
 * seed (TEST_P / INSTANTIATE_TEST_SUITE_P): algebraic identities that
 * must hold bit-exactly on PIM results regardless of the data, plus
 * structural invariants (sort produces a permutation, reductions split
 * over views, scratch never leaks).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "pim/pypim.hpp"

using namespace pypim;

namespace
{

class PropertyTest : public ::testing::TestWithParam<uint64_t>
{
  protected:
    PropertyTest() : dev(testGeometry()), rng(GetParam()) {}

    std::vector<int32_t>
    ints(size_t n)
    {
        std::vector<int32_t> v(n);
        for (auto &x : v)
            x = rng.int32();
        return v;
    }

    Device dev;
    Rng rng;
};

} // namespace

TEST_P(PropertyTest, IntAddCommutesAndInverts)
{
    const auto va = ints(128);
    const auto vb = ints(128);
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    // a + b == b + a (bit exact)
    EXPECT_EQ((a + b).toIntVector(), (b + a).toIntVector());
    // (a + b) - b == a even with wraparound
    EXPECT_EQ(((a + b) - b).toIntVector(), va);
    // a + (-a) == 0
    const auto z = (a + (-a)).toIntVector();
    EXPECT_TRUE(std::all_of(z.begin(), z.end(),
                            [](int32_t x) { return x == 0; }));
}

TEST_P(PropertyTest, IntMulDistributesModulo32)
{
    const auto va = ints(96);
    const auto vb = ints(96);
    const auto vc = ints(96);
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    Tensor c = Tensor::fromVector(vc, &dev);
    // a * (b + c) == a*b + a*c (mod 2^32)
    EXPECT_EQ((a * (b + c)).toIntVector(),
              (a * b + a * c).toIntVector());
    // a * b == b * a
    EXPECT_EQ((a * b).toIntVector(), (b * a).toIntVector());
}

TEST_P(PropertyTest, DivModReconstruction)
{
    auto va = ints(96);
    std::vector<int32_t> vb(96);
    for (size_t i = 0; i < vb.size(); ++i) {
        vb[i] = rng.int32In(-1 << 20, 1 << 20);
        if (vb[i] == 0)
            vb[i] = 11;
        if (va[i] == INT32_MIN && vb[i] == -1)
            vb[i] = 3;
    }
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    // (a / b) * b + (a % b) == a  (C identity)
    const auto rec = ((a / b) * b + (a % b)).toIntVector();
    EXPECT_EQ(rec, va);
}

TEST_P(PropertyTest, ComparisonTrichotomy)
{
    const auto va = ints(128);
    auto vb = ints(128);
    for (size_t i = 0; i < vb.size(); i += 9)
        vb[i] = va[i];
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    const auto lt = (a < b).toIntVector();
    const auto eq = (a == b).toIntVector();
    const auto gt = (a > b).toIntVector();
    for (size_t i = 0; i < va.size(); ++i)
        EXPECT_EQ(lt[i] + eq[i] + gt[i], 1) << "trichotomy at " << i;
}

TEST_P(PropertyTest, FloatMulIdentityAndSignFlip)
{
    Rng r(GetParam() ^ 0x5555);
    std::vector<float> vf(96);
    for (auto &x : vf)
        x = r.floatIn(-1e20f, 1e20f);
    Tensor a = Tensor::fromVector(vf, &dev);
    // a * 1.0 == a bit exactly
    EXPECT_EQ((a * 1.0f).toFloatVector(), vf);
    // a * -1.0 == -a (sign flip, exact in IEEE)
    EXPECT_EQ((a * -1.0f).toFloatVector(), (-a).toFloatVector());
    // a - a == +0 for finite a
    const auto diff = (a - a).toFloatVector();
    for (float d : diff)
        EXPECT_EQ(d, 0.0f);
    // abs(a) >= 0 via sign bit
    for (float x : abs(a).toFloatVector())
        EXPECT_FALSE(std::signbit(x));
}

TEST_P(PropertyTest, FloatAddCommutes)
{
    Rng r(GetParam() ^ 0xAAAA);
    std::vector<uint32_t> bitsA(96), bitsB(96);
    std::vector<float> va(96), vb(96);
    for (size_t i = 0; i < va.size(); ++i) {
        bitsA[i] = r.word();
        bitsB[i] = r.word();
        va[i] = std::bit_cast<float>(bitsA[i]);
        vb[i] = std::bit_cast<float>(bitsB[i]);
    }
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    const auto ab = (a + b).toFloatVector();
    const auto ba = (b + a).toFloatVector();
    for (size_t i = 0; i < ab.size(); ++i) {
        if (std::isnan(ab[i]))
            EXPECT_TRUE(std::isnan(ba[i])) << i;
        else
            EXPECT_EQ(ab[i], ba[i]) << i;
    }
}

TEST_P(PropertyTest, SortIsASortedPermutation)
{
    std::vector<int32_t> v(256);
    for (auto &x : v)
        x = rng.int32In(-50, 50);  // plenty of duplicates
    Tensor t = Tensor::fromVector(v, &dev);
    t.sort();
    auto got = t.toIntVector();
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect);  // same multiset
    // Idempotence.
    t.sort();
    EXPECT_EQ(t.toIntVector(), expect);
}

TEST_P(PropertyTest, SumSplitsOverViews)
{
    std::vector<int32_t> v(120);
    for (auto &x : v)
        x = rng.int32In(-100000, 100000);
    Tensor t = Tensor::fromVector(v, &dev);
    EXPECT_EQ(t.sum<int32_t>(),
              t.every(2).sum<int32_t>() + t.every(2, 1).sum<int32_t>());
    EXPECT_EQ(t.sum<int32_t>(),
              t.slice(0, 60).sum<int32_t>() +
                  t.slice(60, 120).sum<int32_t>());
}

TEST_P(PropertyTest, MinMaxAreElementsAndOrdered)
{
    std::vector<int32_t> v(100);
    for (auto &x : v)
        x = rng.int32();
    Tensor t = Tensor::fromVector(v, &dev);
    const int32_t mn = t.min<int32_t>();
    const int32_t mx = t.max<int32_t>();
    EXPECT_LE(mn, mx);
    EXPECT_NE(std::find(v.begin(), v.end(), mn), v.end());
    EXPECT_NE(std::find(v.begin(), v.end(), mx), v.end());
    EXPECT_EQ(mn, *std::min_element(v.begin(), v.end()));
    EXPECT_EQ(mx, *std::max_element(v.begin(), v.end()));
}

TEST_P(PropertyTest, WhereSelectsExactly)
{
    const auto va = ints(128);
    const auto vb = ints(128);
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    Tensor c = a < b;
    // where(c, a, b) union where(!c, a, b) covers both sides.
    const auto lo = where(c, a, b).toIntVector();
    const auto hi = where(c, b, a).toIntVector();
    for (size_t i = 0; i < va.size(); ++i) {
        EXPECT_EQ(std::min(va[i], vb[i]), std::min(lo[i], hi[i]));
        // Sums wrap as the device's int32 adds do (computed unsigned:
        // signed overflow is undefined on the host).
        const auto wrapSum = [](int32_t x, int32_t y) {
            return static_cast<int32_t>(static_cast<uint32_t>(x) +
                                        static_cast<uint32_t>(y));
        };
        EXPECT_EQ(wrapSum(lo[i], hi[i]), wrapSum(va[i], vb[i]));
    }
}

TEST_P(PropertyTest, BitwiseDeMorgan)
{
    const auto va = ints(128);
    const auto vb = ints(128);
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    // ~(a & b) == ~a | ~b
    EXPECT_EQ((~(a & b)).toIntVector(), ((~a) | (~b)).toIntVector());
    // a ^ b == (a | b) & ~(a & b)
    EXPECT_EQ((a ^ b).toIntVector(),
              ((a | b) & (~(a & b))).toIntVector());
}

TEST_P(PropertyTest, NoScratchOrStorageLeaks)
{
    const uint32_t live0 = dev.allocator().liveAllocations();
    {
        const auto va = ints(256);
        Tensor a = Tensor::fromVector(va, &dev);
        Tensor b = a * a;
        Tensor c = where(a < b, a, b);
        (void)c.sum<int32_t>();
        Tensor s = c.sorted();
        EXPECT_EQ(dev.driver().builder().pool().slotsInUse(), 0u);
    }
    EXPECT_EQ(dev.allocator().liveAllocations(), live0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1ull, 42ull, 0xBEEFull,
                                           777ull, 31415926ull));
