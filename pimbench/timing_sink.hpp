/**
 * @file
 * The ISA probe's operation sink: forwards every OperationSink entry
 * point to a SimulatorGroup and records one "sim" span per call, so a
 * Driver programmed against it splits its wall time into driver self
 * time (the Driver span minus these children) and time inside the
 * simulator group.
 */
#ifndef PIMBENCH_TIMING_SINK_HPP
#define PIMBENCH_TIMING_SINK_HPP

#include "sim/device_group.hpp"
#include "spans.hpp"

namespace pimbench
{

class TimingSink : public pypim::OperationSink
{
  public:
    TimingSink(pypim::SimulatorGroup &group, SpanLog &log)
        : group_(group), log_(log)
    {
    }

    void
    performBatch(const pypim::Word *ops, size_t n) override
    {
        SpanScope s(log_, "performBatch", "sim");
        group_.performBatch(ops, n);
    }

    void
    submitBatch(const pypim::Word *ops, size_t n) override
    {
        SpanScope s(log_, "submitBatch", "sim");
        group_.submitBatch(ops, n);
    }

    void
    flush() override
    {
        SpanScope s(log_, "flush", "sim");
        group_.flush();
    }

    std::shared_ptr<const pypim::BatchTrace>
    prepareTrace(const pypim::Word *ops, size_t n, bool fuse) override
    {
        SpanScope s(log_, "prepareTrace", "sim");
        return group_.prepareTrace(ops, n, fuse);
    }

    void
    submitTrace(std::shared_ptr<const pypim::BatchTrace> trace) override
    {
        SpanScope s(log_, "submitTrace", "sim");
        group_.submitTrace(std::move(trace));
    }

    bool
    readBulk(const pypim::BulkIoSpec &spec, uint32_t *out,
             pypim::BulkIoTelemetry &tel) override
    {
        SpanScope s(log_, "readBulk", "sim");
        return group_.readBulk(spec, out, tel);
    }

    bool
    writeBulk(const pypim::BulkIoSpec &spec, const uint32_t *values,
              pypim::BulkIoTelemetry &tel) override
    {
        SpanScope s(log_, "writeBulk", "sim");
        return group_.writeBulk(spec, values, tel);
    }

    uint32_t
    performRead(pypim::Word op) override
    {
        SpanScope s(log_, "performRead", "sim");
        return group_.performRead(op);
    }

  private:
    pypim::SimulatorGroup &group_;
    SpanLog &log_;
};

} // namespace pimbench

#endif // PIMBENCH_TIMING_SINK_HPP
