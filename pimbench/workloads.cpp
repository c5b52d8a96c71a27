#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace pimbench
{

using namespace pypim;

namespace
{

/** splitmix64: a fixed generator, so a seed means the same inputs on
 *  every host and standard library. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

  private:
    uint64_t s_;
};

/**
 * Fill @p out with @p draw() values, redrawing any value equal to its
 * predecessor. Bulk uploads coalesce equal neighbours into one masked
 * write, so inputs without them give every seed the same write count
 * and hence the same architectural statistics.
 */
template <typename T, typename Draw>
std::vector<T>
distinctNeighbours(size_t n, Draw &&draw)
{
    std::vector<T> out(n);
    for (size_t i = 0; i < n; ++i) {
        do {
            out[i] = draw();
        } while (i > 0 && std::bit_cast<uint32_t>(out[i]) ==
                              std::bit_cast<uint32_t>(out[i - 1]));
    }
    return out;
}

template <typename T>
std::vector<uint32_t>
bitsOf(const std::vector<T> &v)
{
    std::vector<uint32_t> b(v.size());
    for (size_t i = 0; i < v.size(); ++i)
        b[i] = std::bit_cast<uint32_t>(v[i]);
    return b;
}

/** Registers the ISA probe uses: the tensors' own input registers and
 *  the lowest two others for the temporary and the result. */
struct ProbeRegs
{
    uint8_t x = 0, y = 0, t = 0, z = 0;

    ProbeRegs(uint32_t rx, uint32_t ry)
        : x(static_cast<uint8_t>(rx)), y(static_cast<uint8_t>(ry))
    {
        uint8_t r = 0;
        auto nextFree = [&] {
            while (r == x || r == y)
                ++r;
            return r++;
        };
        t = nextFree();
        z = nextFree();
    }
    ProbeRegs() = default;
};

/**
 * Two same-length input tensors on a full device, a short elementwise
 * kernel into one output tensor, exact (bitwise) output check. The
 * subclass names the kernel twice: as Tensor operators and as the
 * R-type instructions those operators lower to.
 */
template <typename T> class ElementwiseWorkload : public Workload
{
  public:
    ElementwiseWorkload(uint32_t crossbars, size_t sets)
        : crossbars_(crossbars), sets_(sets)
    {
    }

    Geometry
    geometry() const override
    {
        Geometry g;
        g.numCrossbars = crossbars_;
        return g;
    }

    uint64_t size() const { return geometry().totalRows(); }
    uint64_t ioBytes() const override { return 3 * size() * 4; }
    size_t inputSets() const override { return sets_; }

    void
    bind(Device &dev) override
    {
        dev_ = &dev;
        const DType dt = std::is_same_v<T, float> ? DType::Float32
                                                  : DType::Int32;
        x_ = Tensor::zeros(size(), dt, &dev);
        y_ = Tensor::zeros(size(), dt, &dev);
        regs_ = ProbeRegs(x_.reg(), y_.reg());
        warp0_ = x_.allocation().warpStart;
    }

    void
    unbind() override
    {
        z_ = Tensor();
        x_ = Tensor();
        y_ = Tensor();
        dev_ = nullptr;
    }

    PhaseTimes
    iterate(size_t k, SpanLog &log) override
    {
        PhaseTimes p;
        const Stats &drv = dev_->driver().stats();
        const uint64_t t0 = nowNs();
        {
            SpanScope s(log, "Tensor::setVector", "upload");
            x_.setVector(xs_[k]);
        }
        {
            SpanScope s(log, "Tensor::setVector", "upload");
            y_.setVector(ys_[k]);
        }
        const uint64_t t1 = nowNs();
        const uint64_t i0 = drv.instructions, h0 = drv.traceCacheHits;
        // Free last iteration's result first, so every iteration
        // allocates the same registers and replays the same traces.
        z_ = Tensor();
        z_ = tensorKernel(log);
        {
            SpanScope s(log, "Device::flush", "flush");
            dev_->flush();
        }
        p.computeInstructions = drv.instructions - i0;
        p.computeTraceHits = drv.traceCacheHits - h0;
        const uint64_t t2 = nowNs();
        {
            SpanScope s(log, readbackName(), "readback");
            if constexpr (std::is_same_v<T, float>)
                out_ = z_.toFloatVector();
            else
                out_ = z_.toIntVector();
        }
        const uint64_t t3 = nowNs();
        p.upload = seconds(t0, t1);
        p.compute = seconds(t1, t2);
        p.readback = seconds(t2, t3);
        return p;
    }

    CheckResult
    check(size_t k) const override
    {
        CheckResult c;
        c.checked = ref_[k].size();
        if (out_.size() != ref_[k].size()) {
            c.wrong = c.checked;
            c.firstError = "readback length differs from the reference";
            return c;
        }
        for (size_t i = 0; i < out_.size(); ++i) {
            if (std::bit_cast<uint32_t>(out_[i]) ==
                std::bit_cast<uint32_t>(ref_[k][i]))
                continue;
            if (c.wrong++ == 0) {
                char msg[160];
                std::snprintf(msg, sizeof msg,
                              "element %zu: got 0x%08x, expected 0x%08x",
                              i, std::bit_cast<uint32_t>(out_[i]),
                              std::bit_cast<uint32_t>(ref_[k][i]));
                c.firstError = msg;
            }
        }
        return c;
    }

    bool hasProbe() const override { return true; }

    PhaseTimes
    probeIterate(Driver &drv, OperationSink &sink, size_t k,
                 SpanLog &log) override
    {
        PhaseTimes p;
        const uint64_t n = size();
        const uint64_t t0 = nowNs();
        {
            SpanScope s(log, "Driver::writeBulk", "driver");
            drv.writeBulk(regs_.x, warp0_, 0, 1, n, xbits_[k].data());
        }
        {
            SpanScope s(log, "Driver::writeBulk", "driver");
            drv.writeBulk(regs_.y, warp0_, 0, 1, n, ybits_[k].data());
        }
        const uint64_t t1 = nowNs();
        const uint64_t i0 = drv.stats().instructions;
        const uint64_t h0 = drv.stats().traceCacheHits;
        isaKernel(drv, log);
        {
            // Device::flush: builder flush, then drain the sink.
            SpanScope s(log, "Driver::builder().flush", "driver");
            drv.builder().flush();
        }
        sink.flush();
        p.computeInstructions = drv.stats().instructions - i0;
        p.computeTraceHits = drv.stats().traceCacheHits - h0;
        const uint64_t t2 = nowNs();
        std::vector<uint32_t> bits(n);
        {
            SpanScope s(log, "Driver::readBulk", "driver");
            if (!drv.readBulk(regs_.z, warp0_, 0, 1, n, bits.data())) {
                // The tensor library's element-loop fallback.
                for (uint64_t i = 0; i < n; ++i) {
                    ReadInstr rd;
                    rd.reg = regs_.z;
                    rd.warp = warp0_ + static_cast<uint32_t>(
                                           i / geometry().rows);
                    rd.row = static_cast<uint32_t>(i % geometry().rows);
                    bits[i] = drv.execute(rd);
                }
            }
        }
        const uint64_t t3 = nowNs();
        out_.resize(n);
        for (uint64_t i = 0; i < n; ++i)
            out_[i] = std::bit_cast<T>(bits[i]);
        p.upload = seconds(t0, t1);
        p.compute = seconds(t1, t2);
        p.readback = seconds(t2, t3);
        return p;
    }

    void probeCompute(Driver &drv) override
    {
        SpanLog off;
        isaKernel(drv, off);
    }

  protected:
    /** The kernel over x_ and y_ as Tensor operators. */
    virtual Tensor tensorKernel(SpanLog &log) = 0;
    /** The same kernel as the R-type instructions it lowers to. */
    virtual void isaKernel(Driver &drv, SpanLog &log) = 0;

    /** One full-device instruction rd <- op(ra, rb). */
    void
    execute(Driver &drv, SpanLog &log, ROp op, uint8_t rd, uint8_t ra,
            uint8_t rb)
    {
        RTypeInstr in;
        in.op = op;
        in.dtype = std::is_same_v<T, float> ? DType::Float32
                                            : DType::Int32;
        in.rd = rd;
        in.ra = ra;
        in.rb = rb;
        in.warps = Range(warp0_, warp0_ + crossbars_ - 1, 1);
        in.rows = Range::all(geometry().rows);
        SpanScope s(log, "Driver::execute", "driver");
        drv.execute(in);
    }

    static const char *
    readbackName()
    {
        return std::is_same_v<T, float> ? "Tensor::toFloatVector"
                                        : "Tensor::toIntVector";
    }

    void
    addSet(std::vector<T> xs, std::vector<T> ys, std::vector<T> ref)
    {
        xbits_.push_back(bitsOf(xs));
        ybits_.push_back(bitsOf(ys));
        xs_.push_back(std::move(xs));
        ys_.push_back(std::move(ys));
        ref_.push_back(std::move(ref));
    }

    uint32_t crossbars_;
    size_t sets_;
    std::vector<std::vector<T>> xs_, ys_, ref_;
    std::vector<std::vector<uint32_t>> xbits_, ybits_;
    Device *dev_ = nullptr;
    Tensor x_, y_, z_;
    std::vector<T> out_;
    ProbeRegs regs_;
    uint32_t warp0_ = 0;
};

/**
 * Fig. 12 body z = x*y + x in fp32 over 16 full crossbars. Inputs are
 * normal floats with exponents in [-30, 30], so every intermediate is
 * normal and the host reference is exact IEEE rounding of two separate
 * operations.
 */
class Fig12Dense final : public ElementwiseWorkload<float>
{
  public:
    explicit Fig12Dense(uint64_t seed) : ElementwiseWorkload(16, 4)
    {
        Rng rng(seed ^ 0xF16120000ull);
        auto draw = [&] {
            const uint64_t r = rng.next();
            const uint32_t sign = static_cast<uint32_t>(r >> 63);
            const uint32_t exp =
                127 - 30 + static_cast<uint32_t>((r >> 32) % 61);
            const uint32_t man = static_cast<uint32_t>(r) & 0x7FFFFF;
            return std::bit_cast<float>(sign << 31 | exp << 23 | man);
        };
        for (size_t k = 0; k < sets_; ++k) {
            auto xs = distinctNeighbours<float>(size(), draw);
            auto ys = distinctNeighbours<float>(size(), draw);
            std::vector<float> ref(size());
            for (size_t i = 0; i < ref.size(); ++i) {
                // Two separately rounded steps, never a fused FMA.
                volatile float prod = xs[i] * ys[i];
                ref[i] = prod + xs[i];
            }
            addSet(std::move(xs), std::move(ys), std::move(ref));
        }
    }

    const char *name() const override { return "fig12_dense"; }

  protected:
    Tensor
    tensorKernel(SpanLog &log) override
    {
        Tensor t;
        {
            SpanScope s(log, "Tensor operator*", "elementwise");
            t = x_ * y_;
        }
        SpanScope s(log, "Tensor operator+", "elementwise");
        return t + x_;
    }

    void
    isaKernel(Driver &drv, SpanLog &log) override
    {
        execute(drv, log, ROp::Mul, regs_.t, regs_.x, regs_.y);
        execute(drv, log, ROp::Add, regs_.z, regs_.t, regs_.x);
    }
};

/** 1 Mi int32 per input over 1024 crossbars: upload two, xor once,
 *  read one back. */
class IoRoundtrip final : public ElementwiseWorkload<int32_t>
{
  public:
    explicit IoRoundtrip(uint64_t seed) : ElementwiseWorkload(1024, 2)
    {
        Rng rng(seed ^ 0x10A0000ull);
        auto draw = [&] { return static_cast<int32_t>(rng.next()); };
        for (size_t k = 0; k < sets_; ++k) {
            auto xs = distinctNeighbours<int32_t>(size(), draw);
            auto ys = distinctNeighbours<int32_t>(size(), draw);
            std::vector<int32_t> ref(size());
            for (size_t i = 0; i < ref.size(); ++i)
                ref[i] = xs[i] ^ ys[i];
            addSet(std::move(xs), std::move(ys), std::move(ref));
        }
    }

    const char *name() const override { return "io_roundtrip"; }

  protected:
    Tensor
    tensorKernel(SpanLog &log) override
    {
        SpanScope s(log, "Tensor operator^", "elementwise");
        return x_ ^ y_;
    }

    void
    isaKernel(Driver &drv, SpanLog &log) override
    {
        execute(drv, log, ROp::BitXor, regs_.z, regs_.x, regs_.y);
    }
};

/**
 * Bitonic fp32 sort of a full 4-crossbar device, then sum and product
 * of the sorted tensor (Fig. 13 bottom). Inputs are +-[0.5, 2) with no
 * equal neighbours; a set whose product would leave [2^-64, 2^64] is
 * redrawn, so the product is always a normal float.
 */
class SortReduce final : public Workload
{
  public:
    static constexpr uint32_t kRows = 128;
    static constexpr uint32_t kCrossbars = 4;

    SortReduce(uint64_t seed, bool socket) : seed_(seed), socket_(socket)
    {
        Rng rng(seed ^ 0x5027000ull);
        auto draw = [&] {
            const uint64_t r = rng.next();
            const uint32_t sign = static_cast<uint32_t>(r >> 63);
            const uint32_t exp = 126 + static_cast<uint32_t>((r >> 32) & 1);
            const uint32_t man = static_cast<uint32_t>(r) & 0x7FFFFF;
            return std::bit_cast<float>(sign << 31 | exp << 23 | man);
        };
        for (size_t k = 0; k < kSets; ++k) {
            std::vector<float> in;
            double log2Prod = 0;
            do {
                in = distinctNeighbours<float>(size(), draw);
                log2Prod = 0;
                for (float v : in)
                    log2Prod += std::log2(std::fabs(v));
            } while (std::fabs(log2Prod) > 64);
            Reference r;
            r.sorted = in;
            std::sort(r.sorted.begin(), r.sorted.end());
            r.prod = 1;
            for (float v : in) {
                r.sum += v;
                r.absSum += std::fabs(v);
                r.prod *= v;
            }
            inputs_.push_back(std::move(in));
            refs_.push_back(std::move(r));
        }
    }

    const char *
    name() const override
    {
        return socket_ ? "sort_reduce-socket2" : "sort_reduce";
    }

    Geometry
    geometry() const override
    {
        Geometry g;
        g.rows = kRows;
        g.numCrossbars = kCrossbars;
        return g;
    }

    EngineConfig
    config() const override
    {
        EngineConfig c;
        if (socket_) {
            c.devices = 2;
            c.transport = TransportKind::Socket;
        }
        return c;
    }

    std::unique_ptr<Workload>
    socketTwin() const override
    {
        return socket_ ? nullptr : std::make_unique<SortReduce>(seed_, true);
    }

    uint64_t size() const { return geometry().totalRows(); }
    uint64_t ioBytes() const override { return 2 * size() * 4 + 2 * 4; }
    size_t inputSets() const override { return kSets; }

    void
    bind(Device &dev) override
    {
        dev_ = &dev;
        x_ = Tensor::zeros(size(), DType::Float32, &dev);
    }

    void
    unbind() override
    {
        x_ = Tensor();
        dev_ = nullptr;
    }

    PhaseTimes
    iterate(size_t k, SpanLog &log) override
    {
        PhaseTimes p;
        const Stats &drv = dev_->driver().stats();
        const uint64_t t0 = nowNs();
        {
            SpanScope s(log, "Tensor::setVector", "upload");
            x_.setVector(inputs_[k]);
        }
        const uint64_t t1 = nowNs();
        const uint64_t i0 = drv.instructions, h0 = drv.traceCacheHits;
        {
            SpanScope s(log, "Tensor::sort", "sort");
            x_.sort();
        }
        {
            SpanScope s(log, "Tensor::sum", "reduce");
            sum_ = x_.sum<float>();
        }
        {
            SpanScope s(log, "Tensor::prod", "reduce");
            prod_ = x_.prod<float>();
        }
        {
            SpanScope s(log, "Device::flush", "flush");
            dev_->flush();
        }
        p.computeInstructions = drv.instructions - i0;
        p.computeTraceHits = drv.traceCacheHits - h0;
        const uint64_t t2 = nowNs();
        {
            SpanScope s(log, "Tensor::toFloatVector", "readback");
            sorted_ = x_.toFloatVector();
        }
        const uint64_t t3 = nowNs();
        p.upload = seconds(t0, t1);
        p.compute = seconds(t1, t2);
        p.readback = seconds(t2, t3);
        return p;
    }

    /**
     * Sorted values must equal std::sort of the input. The reduction
     * tree adds and multiplies in another order than the host, so sum
     * and product are held to rounding-error bounds of a double
     * reference: |sum - ref| <= 1e-5 * sum|x| (each of the log2(n)
     * tree levels rounds by at most 2^-24 of that) and
     * |prod - ref| <= n * 2^-23 * |ref| (n roundings of 2^-24 each,
     * with margin).
     */
    CheckResult
    check(size_t k) const override
    {
        const Reference &r = refs_[k];
        CheckResult c;
        c.checked = r.sorted.size() + 2;
        auto fail = [&](std::string msg) {
            if (c.wrong++ == 0)
                c.firstError = std::move(msg);
        };
        if (sorted_.size() != r.sorted.size()) {
            c.wrong = r.sorted.size();
            c.firstError = "readback length differs from the reference";
        } else {
            for (size_t i = 0; i < sorted_.size(); ++i)
                if (!(sorted_[i] == r.sorted[i]))
                    fail("sorted element " + std::to_string(i) +
                         " differs from std::sort");
        }
        if (!(std::fabs(sum_ - r.sum) <= 1e-5 * r.absSum))
            fail("sum " + std::to_string(sum_) + " vs reference " +
                 std::to_string(r.sum));
        const double prodTol = static_cast<double>(size()) *
                               std::ldexp(1.0, -23) * std::fabs(r.prod);
        if (!(std::fabs(prod_ - r.prod) <= prodTol))
            fail("prod " + std::to_string(prod_) + " vs reference " +
                 std::to_string(r.prod));
        return c;
    }

  private:
    static constexpr size_t kSets = 4;

    struct Reference
    {
        std::vector<float> sorted;
        double sum = 0;
        double absSum = 0;
        double prod = 1;
    };

    uint64_t seed_;
    bool socket_;
    std::vector<std::vector<float>> inputs_;
    std::vector<Reference> refs_;
    Device *dev_ = nullptr;
    Tensor x_;
    std::vector<float> sorted_;
    float sum_ = 0;
    float prod_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "fig12_dense")
        return std::make_unique<Fig12Dense>(seed);
    if (name == "sort_reduce")
        return std::make_unique<SortReduce>(seed, false);
    if (name == "io_roundtrip")
        return std::make_unique<IoRoundtrip>(seed);
    return nullptr;
}

} // namespace pimbench
