/**
 * @file
 * In-memory span log of the benchmark's traced run.
 *
 * Spans are recorded only around calls the benchmark itself makes into
 * the library's public layers (Tensor API, Driver, OperationSink), so
 * the library carries no tracing code. A disabled log costs one branch
 * per call site; the untraced runs that produce the end-to-end metrics
 * keep it disabled. Spans stay in memory and are written out once, as
 * Chrome trace-event JSON (loadable in Perfetto or chrome://tracing),
 * when the run ends.
 */
#ifndef PIMBENCH_SPANS_HPP
#define PIMBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pimbench
{

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
seconds(uint64_t fromNs, uint64_t toNs)
{
    return static_cast<double>(toNs - fromNs) * 1e-9;
}

/** One timed interval at a layer boundary. Names are static strings. */
struct Span
{
    const char *name;
    /** Category: a pim call class (upload, elementwise, sort, reduce,
     *  readback, flush) or the layer entered (driver, sim). */
    const char *cat;
    uint64_t startNs;
    uint64_t durNs;
    int32_t parent;      //!< index of the enclosing span, -1 at top
    uint32_t track;      //!< 1 = tensor-level run, 2 = ISA probe
    uint32_t iteration;  //!< benchmark iteration the span belongs to
};

class SpanLog
{
  public:
    void setEnabled(bool on) { on_ = on; }
    void setTrack(uint32_t t) { track_ = t; }
    void setIteration(uint32_t i) { iteration_ = i; }

    int32_t
    open(const char *name, const char *cat)
    {
        if (!on_)
            return -1;
        const int32_t id = static_cast<int32_t>(spans_.size());
        spans_.push_back({name, cat, 0, 0,
                          stack_.empty() ? -1 : stack_.back(), track_,
                          iteration_});
        stack_.push_back(id);
        spans_.back().startNs = nowNs();
        return id;
    }

    void
    close(int32_t id)
    {
        if (id < 0)
            return;
        const uint64_t end = nowNs();
        spans_[id].durNs = end - spans_[id].startNs;
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per span: duration minus the durations of its direct children. */
    std::vector<uint64_t>
    selfNs() const
    {
        std::vector<uint64_t> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].durNs;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[s.parent] -= s.durNs;
        return self;
    }

    /**
     * Write the log as a Chrome trace-event file ("X" complete events,
     * microsecond timestamps relative to the first span, one thread
     * track per run kind). @p otherData is a JSON object stored under
     * "otherData" (the run's configuration record). Returns false when
     * the file cannot be written.
     */
    bool
    writeChrome(const std::string &path, const std::string &otherData) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        const uint64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
        std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,"
                        "\"traceEvents\":[\n",
                     otherData.c_str());
        std::fprintf(f, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                        "\"tid\":1,\"args\":{\"name\":\"tensor API\"}},\n"
                        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                        "\"tid\":2,\"args\":{\"name\":\"ISA probe\"}}");
        for (const Span &s : spans_) {
            std::fprintf(f,
                         ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"iteration\":%u}}",
                         s.name, s.cat, s.track,
                         static_cast<double>(s.startNs - t0) / 1e3,
                         static_cast<double>(s.durNs) / 1e3, s.iteration);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    bool on_ = false;
    uint32_t track_ = 1;
    uint32_t iteration_ = 0;
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

/** RAII span: open on construction, close on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, const char *cat)
        : log_(log), id_(log.open(name, cat))
    {
    }
    ~SpanScope() { log_.close(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog &log_;
    int32_t id_;
};

} // namespace pimbench

#endif // PIMBENCH_SPANS_HPP
