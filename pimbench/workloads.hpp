/**
 * @file
 * The benchmark's workloads. Each one owns its seeded inputs and host
 * reference results, runs one iteration as upload -> compute ->
 * readback through the public Tensor API, and checks the outputs.
 * Workloads whose kernel is a fixed instruction list also replay the
 * identical kernel through Driver calls (the ISA probe), which is how
 * the traced run splits time between the tensor library, the driver
 * and the simulator without any tracing inside the library.
 */
#ifndef PIMBENCH_WORKLOADS_HPP
#define PIMBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pim/pypim.hpp"
#include "spans.hpp"

namespace pimbench
{

/** One iteration's phase wall times and compute-phase driver counts. */
struct PhaseTimes
{
    double upload = 0;    //!< seconds in host -> device transfers
    double compute = 0;   //!< seconds in the kernel (incl. final flush)
    double readback = 0;  //!< seconds in device -> host transfers
    uint64_t computeInstructions = 0;  //!< driver instructions retired
    uint64_t computeTraceHits = 0;     //!< of which trace-cache hits

    double total() const { return upload + compute + readback; }
};

/** Output check of one iteration. */
struct CheckResult
{
    uint64_t checked = 0;  //!< output values compared
    uint64_t wrong = 0;    //!< of which outside their tolerance
    std::string firstError;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    virtual pypim::Geometry geometry() const = 0;
    /**
     * The pinned configuration: library defaults plus only the
     * deployment knobs this workload names. Never read from the
     * environment.
     */
    virtual pypim::EngineConfig config() const { return {}; }
    /** Host bytes uploaded plus bytes read back per iteration. */
    virtual uint64_t ioBytes() const = 0;
    /** Input sets made from the seed; iteration i uses set i % n. */
    virtual size_t inputSets() const = 0;

    /** Allocate the workload's tensors on @p dev. */
    virtual void bind(pypim::Device &dev) = 0;
    /** Release every tensor; call before the device is destroyed. */
    virtual void unbind() = 0;
    /** Upload input set @p k, run the kernel, read the result back. */
    virtual PhaseTimes iterate(size_t k, SpanLog &log) = 0;
    /** Compare the last iteration's outputs with set @p k's reference. */
    virtual CheckResult check(size_t k) const = 0;

    // --- ISA probe ---------------------------------------------------

    virtual bool hasProbe() const { return false; }
    /**
     * iterate() through Driver calls on @p drv, whose sink is @p sink:
     * the same bulk transfers, R-type instructions and drain, with the
     * same registers' data and geometry. Outputs land where check()
     * reads them.
     */
    virtual PhaseTimes
    probeIterate(pypim::Driver &drv, pypim::OperationSink &sink, size_t k,
                 SpanLog &log)
    {
        (void)drv;
        (void)sink;
        (void)k;
        (void)log;
        return {};
    }
    /** The kernel's compute instructions alone (driver generation rate
     *  into a BufferSink). */
    virtual void probeCompute(pypim::Driver &drv) { (void)drv; }

    /**
     * The same program and inputs deployed with devices=2 and
     * transport=socket (two shard worker processes), for the traced
     * run's wire phase; null where the workload has none.
     */
    virtual std::unique_ptr<Workload> socketTwin() const { return nullptr; }
};

/** Build workload @p name with inputs made from @p seed; null if the
 *  name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed);

} // namespace pimbench

#endif // PIMBENCH_WORKLOADS_HPP
