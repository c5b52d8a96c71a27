#include "sim/replay_program.hpp"

#include <algorithm>
#include <atomic>

#include "sim/batch_trace.hpp"
#include "sim/segment_trace.hpp"
#include "uarch/partition.hpp"

namespace pypim
{

namespace
{

/** Sections per merged pass: bounds the pass-local footprint so an
 *  executor (host or device) can stage a pass in fixed storage. */
constexpr uint32_t kMaxPassSections = 256;

/** Small column bitset (cols <= 1024 by the micro-op format). */
struct ColSet
{
    uint64_t w[1024 / 64] = {};

    void
    clear(uint32_t words)
    {
        std::fill(w, w + words, 0);
    }
    void set(uint32_t c) { w[c / 64] |= 1ull << (c % 64); }
    bool
    intersects(const ColSet &o, uint32_t words) const
    {
        for (uint32_t i = 0; i < words; ++i)
            if (w[i] & o.w[i])
                return true;
        return false;
    }
    void
    merge(const ColSet &o, uint32_t words)
    {
        for (uint32_t i = 0; i < words; ++i)
            w[i] |= o.w[i];
    }
};

ReplayProgram::SecKind
sectionKind(const HalfGates &hg, bool fusedInit)
{
    if (fusedInit)
        return ReplayProgram::SecKind::FusedNotNor;
    switch (hg.gate) {
      case Gate::Init0: return ReplayProgram::SecKind::Init0;
      case Gate::Init1: return ReplayProgram::SecKind::Init1;
      default:          return ReplayProgram::SecKind::NotNor;
    }
}

} // namespace

void
compileSegmentProgram(const SegmentTrace &t, const Geometry &geo,
                      ReplayProgram &p)
{
    p.instrs.clear();
    p.sections.clear();
    p.pairs.clear();
    p.vgates.clear();
    p.wordsPerMask = t.wordsPerMask;
    p.xbLo = t.xbLo;
    p.xbHi = t.xbHi;
    // Snapshot ids become direct word offsets into the program's own
    // arena: id k lives at k * wordsPerMask, resolved once here.
    p.maskWords = t.rowWords;
    p.maskBlocks = t.rowMaskBlocks;

    const uint32_t colWords = (geo.cols + 63) / 64;
    // Column footprint of the OPEN pass: merging keeps every merged
    // op's reads and writes pairwise disjoint from the others', so
    // the pass's sections are order-independent (see header).
    ColSet passOuts, passIns;
    int64_t open = -1;  //!< index of the growing HPass, or -1

    for (const TraceOp &op : t.ops) {
        switch (op.type) {
          case OpType::Write: {
            open = -1;
            ReplayProgram::Instr in;
            in.kind = ReplayProgram::Kind::WStripe;
            in.cls = OpClass::Write;
            in.maskOff = op.rowMask * t.wordsPerMask;
            in.maskFull = t.rowMaskFull[op.rowMask];
            in.off = static_cast<uint32_t>(p.pairs.size());
            in.count = op.wn;
            in.work = op.wn;
            in.xb = op.xb;
            if (op.wn > 1)
                p.pairs.insert(p.pairs.end(),
                               t.writePairs.begin() + op.wrun,
                               t.writePairs.begin() + op.wrun + op.wn);
            else
                p.pairs.push_back({op.index, op.value});
            p.instrs.push_back(in);
            break;
          }
          case OpType::LogicH: {
            const HalfGates &hg = *op.hg;
            const ReplayProgram::SecKind kind =
                sectionKind(hg, op.fusedInit);
            // Candidate footprint. A stateful gate also READS its
            // output (out_new = out_old & ...), but only its OWN —
            // covered by keeping candidate outs disjoint from
            // everything already in the pass.
            ColSet candOuts, candIns;
            candOuts.clear(colWords);
            candIns.clear(colWords);
            uint32_t nActive = 0;
            for (uint32_t s = 0; s < hg.numSections; ++s) {
                const Section &sec = hg.sections[s];
                if (!sec.active())
                    continue;
                ++nActive;
                candOuts.set(static_cast<uint32_t>(sec.outCol));
                for (uint32_t k = 0; k < sec.numIn; ++k)
                    candIns.set(static_cast<uint32_t>(sec.inCol[k]));
            }
            const uint32_t maskOff = op.rowMask * t.wordsPerMask;
            bool merged = false;
            if (open >= 0) {
                ReplayProgram::Instr &pass = p.instrs[open];
                merged = pass.maskOff == maskOff && pass.xb == op.xb &&
                         pass.count + nActive <= kMaxPassSections &&
                         !candIns.intersects(passOuts, colWords) &&
                         !candOuts.intersects(passOuts, colWords) &&
                         !candOuts.intersects(passIns, colWords);
            }
            if (!merged) {
                ReplayProgram::Instr in;
                in.kind = ReplayProgram::Kind::HPass;
                in.cls = OpClass::LogicH;
                in.maskOff = maskOff;
                in.maskFull = t.rowMaskFull[op.rowMask];
                in.off = static_cast<uint32_t>(p.sections.size());
                in.passKind = static_cast<uint8_t>(kind);
                in.xb = op.xb;
                p.instrs.push_back(in);
                open = static_cast<int64_t>(p.instrs.size()) - 1;
                passOuts.clear(colWords);
                passIns.clear(colWords);
            }
            ReplayProgram::Instr &pass = p.instrs[open];
            if (pass.passKind != static_cast<uint8_t>(kind))
                pass.passKind = ReplayProgram::kMixedPass;
            for (uint32_t s = 0; s < hg.numSections; ++s) {
                const Section &sec = hg.sections[s];
                if (!sec.active())
                    continue;
                ReplayProgram::PSection ps;
                ps.kind = kind;
                ps.outCol =
                    static_cast<uint16_t>(sec.outCol);
                ps.inA = static_cast<uint16_t>(
                    sec.numIn >= 1 ? sec.inCol[0] : sec.outCol);
                ps.inB = static_cast<uint16_t>(
                    sec.numIn == 2 ? sec.inCol[1] : ps.inA);
                p.sections.push_back(ps);
                ++pass.count;
            }
            pass.work += op.fusedInit ? 2 : 1;
            passOuts.merge(candOuts, colWords);
            passIns.merge(candIns, colWords);
            break;
          }
          case OpType::LogicV: {
            open = -1;
            ReplayProgram::VGate g;
            g.gate = op.gate;
            g.inWord = op.rowIn / 64;
            g.inShift = op.rowIn % 64;
            g.outWord = op.rowOut / 64;
            g.outBit = 1ull << (op.rowOut % 64);
            // Extend the trailing run when slot and crossbar range
            // match; any grouping is bit-identical (each gate touches
            // one column, and per-column order is preserved), so
            // breaking at an xb change keeps instructions uniform.
            if (!p.instrs.empty() &&
                p.instrs.back().kind == ReplayProgram::Kind::VRun &&
                p.instrs.back().slot == op.index &&
                p.instrs.back().xb == op.xb) {
                ReplayProgram::Instr &run = p.instrs.back();
                ++run.count;
                ++run.work;
            } else {
                ReplayProgram::Instr in;
                in.kind = ReplayProgram::Kind::VRun;
                in.cls = OpClass::LogicV;
                in.maskFull = 1;  // LogicV addresses rows directly
                in.off = static_cast<uint32_t>(p.vgates.size());
                in.count = 1;
                in.slot = op.index;
                in.work = 1;
                in.xb = op.xb;
                p.instrs.push_back(in);
            }
            p.vgates.push_back(g);
            break;
          }
          default:
            break;  // unreachable: segments hold work ops only
        }
    }

    p.allMasksFull =
        std::all_of(p.instrs.begin(), p.instrs.end(),
                    [](const ReplayProgram::Instr &in) {
                        return in.maskFull != 0;
                    });
    p.uniformXb =
        !p.instrs.empty() &&
        std::all_of(p.instrs.begin(), p.instrs.end(),
                    [&](const ReplayProgram::Instr &in) {
                        return in.xb == p.instrs.front().xb;
                    });
    p.xb = p.instrs.empty() ? Range() : p.instrs.front().xb;
    p.workWrites = p.workLogicH = p.workLogicV = 0;
    for (const ReplayProgram::Instr &in : p.instrs) {
        switch (in.cls) {
          case OpClass::Write:  p.workWrites += in.work; break;
          case OpClass::LogicH: p.workLogicH += in.work; break;
          default:              p.workLogicV += in.work; break;
        }
    }
}

void
ReplayProgram::summarizeMasks()
{
    maskBlocks.clear();
    for (size_t off = 0; off < maskWords.size(); off += wordsPerMask)
        maskBlocks.push_back(
            MaskBlocks::of({maskWords.data() + off, wordsPerMask}));
}

namespace
{
std::atomic<bool> compilationOn{true};
} // namespace

void
setTraceCompilationEnabled(bool on)
{
    compilationOn.store(on);
}

void
compileBatchTrace(BatchTrace &batch, const Geometry &geo)
{
    if (!compilationOn.load(std::memory_order_relaxed))
        return;
    batch.programs.resize(batch.used);
    for (uint32_t s = 0; s < batch.used; ++s)
        compileSegmentProgram(batch.segments[s], geo,
                              batch.programs[s]);
}

} // namespace pypim
