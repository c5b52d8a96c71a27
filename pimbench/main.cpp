/**
 * @file
 * PyPIM benchmark program: one workload per process.
 *
 *   pimbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--commit ID] [--source-hash H] [--out DIR]
 *
 * --trace 0 prints the end-to-end metrics (instr_per_s, io_mb_per_s,
 * pim_cycles, setup_s, peak_rss_mb); --trace 1 runs the same workload
 * untraced, then with spans around every call into the tensor API,
 * then (where the kernel is a fixed instruction list) through the ISA
 * probe, and prints the per-layer metrics. Either way the last stdout
 * line is one JSON object {correct, attempted, failed, metrics}; the
 * full record with the pinned configuration and a host fingerprint is
 * written under --out. Any wrong output, thrown operation or
 * architectural-count difference makes the exit code non-zero.
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "timing_sink.hpp"
#include "workloads.hpp"

extern char **environ;

namespace pimbench
{
namespace
{

using namespace pypim;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string commit = "unknown";
    std::string sourceHash = "unknown";
    std::string out = ".bench_build/results";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "pimbench: %s\nusage: pimbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--commit ID] "
                 "[--source-hash H] [--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("bad --seed " + v);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0))
                usage("bad --seconds " + v);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("bad --trace " + v);
            a.trace = v == "1";
        } else if (k == "--commit") {
            a.commit = v;
        } else if (k == "--source-hash") {
            a.sourceHash = v;
        } else if (k == "--out") {
            a.out = v;
        } else {
            usage("unknown argument " + k);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/**
 * Remove every inherited PYPIM_* variable, so nothing in the library
 * can pick up configuration the workload does not name. Returns the
 * names removed (recorded with the result).
 */
std::vector<std::string>
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "PYPIM_", 6) == 0)
            names.emplace_back(*e, std::strchr(*e, '=') - *e);
    for (const auto &n : names)
        unsetenv(n.c_str());
    return names;
}

/**
 * Restrict this process, and the shard workers it forks later, to the
 * highest-numbered CPU it may run on (CPU 0 takes most of the guest's
 * housekeeping). Every phase then runs under the same placement, so
 * the socket deployment of sort_reduce differs from the in-process one
 * only by its deployment knobs, and its round trips are context
 * switches on one CPU instead of cross-CPU wake-ups whose latency
 * follows whatever else the host is running. Returns the CPU, or -1
 * if pinning failed (recorded with the result).
 */
int
pinToOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return -1;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
        if (!CPU_ISSET(c, &set))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0 ? c : -1;
    }
    return -1;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Shortest time of a phase's iterations: comparisons between phases
 *  run at different moments use it, for the reason given at endToEnd. */
double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

uint64_t
procStatusKb(const char *key)
{
    std::ifstream f("/proc/self/status");
    std::string line;
    const size_t klen = std::strlen(key);
    while (std::getline(f, line))
        if (line.compare(0, klen, key) == 0)
            return std::strtoull(line.c_str() + klen, nullptr, 10);
    return 0;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        o += c;
    }
    return o + "\"";
}

/** A number with all its digits; null when not finite (a broken
 *  measurement must not pass as a value). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The run's configuration record: workload, seed, resolved engine
 *  configuration, geometry and host fingerprint. */
std::string
configRecord(const Args &a, const Workload &w,
             const std::vector<std::string> &scrubbed, int cpu)
{
    const EngineConfig c = w.config();
    const Geometry g = w.geometry();
    std::ostringstream o;
    o << "{\"workload\":" << jsonString(w.name())
      << ",\"seed\":" << a.seed << ",\"seconds\":" << jsonNumber(a.seconds)
      << ",\"trace\":" << (a.trace ? 1 : 0)
      << ",\"engine\":{\"kind\":" << jsonString(engineKindName(c.kind))
      << ",\"threads\":" << c.resolvedThreads()
      << ",\"pipeline\":" << (c.pipeline ? "true" : "false")
      << ",\"trace_cache\":" << (c.traceCache ? "true" : "false")
      << ",\"devices\":" << c.devices
      << ",\"affinity\":" << (c.affinity ? "true" : "false")
      << ",\"storage\":" << jsonString(xbarStorageName(c.storage))
      << ",\"bulk_io\":" << (c.bulkIo ? "true" : "false")
      << ",\"compiled_replay\":" << (c.compiledReplay ? "true" : "false")
      << ",\"faults\":" << jsonString(c.faults)
      << ",\"verify_state\":" << (c.verifyState ? "true" : "false")
      << ",\"transport\":" << jsonString(transportKindName(c.transport))
      << "},\"geometry\":{\"rows\":" << g.rows << ",\"cols\":" << g.cols
      << ",\"partitions\":" << g.partitions
      << ",\"word_bits\":" << g.wordBits
      << ",\"crossbars\":" << g.numCrossbars
      << ",\"user_regs\":" << g.userRegs
      << ",\"clock_hz\":" << g.clockHz << "},\"ignored_env\":[";
    for (size_t i = 0; i < scrubbed.size(); ++i)
        o << (i ? "," : "") << jsonString(scrubbed[i]);
    o << "],\"pinned_cpu\":" << cpu
      << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << jsonString(cpuModel())
#if defined(__clang__)
      << ",\"compiler\":" << jsonString("clang " __VERSION__)
#elif defined(__GNUC__)
      << ",\"compiler\":" << jsonString("gcc " __VERSION__)
#else
      << ",\"compiler\":" << jsonString(__VERSION__)
#endif
      << ",\"build_type\":" << jsonString(PIMBENCH_BUILD_TYPE)
      << ",\"git_commit\":" << jsonString(a.commit)
      << ",\"source_hash\":" << jsonString(a.sourceHash) << "}}";
    return o.str();
}

/** Per-iteration architectural counts: must repeat exactly. */
struct ArchCounts
{
    uint64_t cycles = 0;
    std::array<uint64_t, Stats::numClasses> ops{};

    bool operator==(const ArchCounts &) const = default;

    static ArchCounts
    delta(const Stats &before, const Stats &after)
    {
        const Stats d = after - before;
        ArchCounts a;
        a.cycles = d.totalCycles();
        a.ops = d.opCount;
        return a;
    }

    uint64_t
    op(OpClass c) const
    {
        return ops[static_cast<size_t>(c)];
    }

    std::string
    str() const
    {
        std::ostringstream o;
        o << "pim_cycles=" << cycles;
        for (size_t c = 0; c < Stats::numClasses; ++c)
            o << " " << opClassName(static_cast<OpClass>(c)) << "="
              << ops[c];
        return o.str();
    }
};

/** One measured iteration. */
struct IterRecord
{
    PhaseTimes t;
    ArchCounts arch;
    uint64_t instructions = 0;   //!< driver instructions, all phases
    uint64_t boundaryMoves = 0;
    WireTelemetry wire;
    size_t spanBegin = 0, spanEnd = 0;  //!< this iteration's spans
};

WireTelemetry
wireDelta(const WireTelemetry &a, const WireTelemetry &b)
{
    WireTelemetry d;
    d.bytesTx = b.bytesTx - a.bytesTx;
    d.bytesRx = b.bytesRx - a.bytesRx;
    d.roundTrips = b.roundTrips - a.roundTrips;
    d.traceInstalls = b.traceInstalls - a.traceInstalls;
    d.traceHits = b.traceHits - a.traceHits;
    d.exchanges = b.exchanges - a.exchanges;
    d.exchangeNs = b.exchangeNs - a.exchangeNs;
    return d;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Runs one workload and accumulates the correctness ledger. */
class Session
{
  public:
    Session(Workload &w, const Args &a) : w_(w), args_(a) {}

    ~Session() { release(); }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Construct a fresh device, bind, upload and run one warm-up
     *  iteration; returns the seconds taken. */
    double
    setup()
    {
        release();
        const uint64_t t0 = nowNs();
        dev_ = std::make_unique<Device>(w_.geometry(),
                                        Driver::Mode::Parallel,
                                        w_.config());
        w_.bind(*dev_);
        w_.iterate(0, log_);
        const uint64_t t1 = nowNs();
        account(w_.check(0));
        return seconds(t0, t1);
    }

    /** Run timed iterations for @p secs (at least kMinIterations). */
    std::vector<IterRecord>
    timedPhase(double secs)
    {
        std::vector<IterRecord> recs;
        const uint64_t start = nowNs();
        while (recs.size() < kMinIterations ||
               seconds(start, nowNs()) < secs) {
            const size_t k = (next_++) % w_.inputSets();
            log_.setIteration(static_cast<uint32_t>(next_));
            IterRecord r;
            const Stats archBefore = dev_->stats();
            const uint64_t drvBefore = dev_->driver().stats().instructions;
            const uint64_t bmBefore = dev_->group().traffic().boundaryMoves;
            const WireTelemetry wireBefore = dev_->group().wireTelemetry();
            r.spanBegin = log_.spans().size();
            r.t = w_.iterate(k, log_);
            r.spanEnd = log_.spans().size();
            r.instructions =
                dev_->driver().stats().instructions - drvBefore;
            r.boundaryMoves =
                dev_->group().traffic().boundaryMoves - bmBefore;
            r.wire = wireDelta(wireBefore, dev_->group().wireTelemetry());
            r.arch = ArchCounts::delta(archBefore, dev_->stats());
            account(w_.check(k));
            expectArch(r.arch, "tensor-level iteration");
            recs.push_back(r);
        }
        return recs;
    }

    /** Destroy the device (its memory with it). */
    void
    release()
    {
        w_.unbind();
        dev_.reset();
    }

    /** Fold another session's checks and failures into this one. */
    void
    absorb(const Session &o)
    {
        attempted_ += o.attempted_;
        failed_ += o.failed_;
        archOk_ = archOk_ && o.archOk_;
        errors_.insert(errors_.end(), o.errors_.begin(), o.errors_.end());
    }

    /** Record an output check. */
    void
    account(const CheckResult &c)
    {
        attempted_ += c.checked;
        failed_ += c.wrong;
        if (c.wrong && errors_.size() < 8)
            errors_.push_back(std::string(w_.name()) + ": " +
                              std::to_string(c.wrong) + " wrong, first: " +
                              c.firstError);
    }

    /** A thrown operation: counts as one failed attempt. */
    void
    thrown(const std::string &what)
    {
        attempted_ += 1;
        failed_ += 1;
        errors_.push_back(std::string(w_.name()) + ": threw: " + what);
    }

    /** Every measured iteration must repeat the first one's counts. */
    void
    expectArch(const ArchCounts &a, const char *where)
    {
        if (!arch_) {
            arch_ = a;
            return;
        }
        if (!(a == *arch_))
            archError(std::string(where) + " counts " + a.str() +
                      " differ from " + arch_->str());
    }

    void
    archError(const std::string &msg)
    {
        archOk_ = false;
        errors_.push_back("architectural determinism: " + msg);
    }

    /**
     * Compare this run's per-iteration counts with the record left by
     * earlier runs of the same workload built from the same sources
     * (any seed), and leave one if there is none.
     * Skipped without --source-hash, which names the sources.
     */
    void
    crossRunCheck()
    {
        if (!arch_ || args_.sourceHash == "unknown")
            return;
        namespace fs = std::filesystem;
        const fs::path p = fs::path(args_.out) /
                           ("arch-" + std::string(w_.name()) + "-" +
                            args_.sourceHash + ".txt");
        std::ifstream in(p);
        std::string prev;
        if (std::getline(in, prev)) {
            if (prev != arch_->str())
                archError("counts " + arch_->str() +
                          " differ from an earlier run's " + prev);
            return;
        }
        const fs::path tmp = p.string() + ".tmp" +
                             std::to_string(::getpid());
        std::ofstream(tmp) << arch_->str() << "\n";
        std::error_code ec;
        fs::rename(tmp, p, ec);
    }

    Device &device() { return *dev_; }
    SpanLog &log() { return log_; }
    const std::optional<ArchCounts> &arch() const { return arch_; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool ok() const { return failed_ == 0 && archOk_; }
    const std::vector<std::string> &errors() const { return errors_; }

    static constexpr size_t kMinIterations = 3;

  private:
    Workload &w_;
    const Args &args_;
    std::unique_ptr<Device> dev_;
    SpanLog log_;
    size_t next_ = 0;
    std::optional<ArchCounts> arch_;
    bool archOk_ = true;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> errors_;
};

/** Device set-ups per run, spread evenly over the timed phase. */
constexpr size_t kSetups = 5;

/**
 * End-to-end metrics. Rates come from the run's fastest iteration: on
 * a shared host, co-tenant load slows every iteration by up to ~2x in
 * phases lasting seconds, which moves a median by whole modes between
 * runs while the best iteration stays within a few percent. Medians
 * are printed alongside for reference.
 */
std::vector<Metric>
endToEnd(Session &s, Workload &w, const Args &a, std::string &samples)
{
    std::vector<double> setups;
    std::vector<IterRecord> recs;
    for (size_t i = 0; i < kSetups; ++i) {
        setups.push_back(s.setup());
        for (const auto &r : s.timedPhase(a.seconds / kSetups))
            recs.push_back(r);
    }
    std::vector<double> ips, io;
    for (const auto &r : recs) {
        ips.push_back(static_cast<double>(r.t.computeInstructions) /
                      r.t.compute);
        io.push_back(static_cast<double>(w.ioBytes()) /
                     (r.t.upload + r.t.readback) / 1e6);
    }
    std::printf("timed iterations: %zu; median instr_per_s %.6g, median "
                "io_mb_per_s %.6g\n",
                recs.size(), median(ips), median(io));
    // Every iteration's rates, kept in the run's record for later study.
    std::ostringstream o;
    o << "{\"instr_per_s\":[";
    for (size_t i = 0; i < ips.size(); ++i)
        o << (i ? "," : "") << jsonNumber(ips[i]);
    o << "],\"io_mb_per_s\":[";
    for (size_t i = 0; i < io.size(); ++i)
        o << (i ? "," : "") << jsonNumber(io[i]);
    o << "],\"setup_s\":[";
    for (size_t i = 0; i < setups.size(); ++i)
        o << (i ? "," : "") << jsonNumber(setups[i]);
    o << "]}";
    samples = o.str();
    return {
        {"instr_per_s", *std::max_element(ips.begin(), ips.end()),
         "instr/s"},
        {"io_mb_per_s", *std::max_element(io.begin(), io.end()), "MB/s"},
        {"pim_cycles", static_cast<double>(s.arch()->cycles), "cycles"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", static_cast<double>(procStatusKb("VmHWM:")) / 1024,
         "MB"},
    };
}

/** Per-iteration sums of span time, keyed by category or name. */
struct SpanSums
{
    std::map<std::string, double> byCat;   //!< top-level spans
    std::map<std::string, double> byName;  //!< "sim" spans by name
    double topLevel = 0;
    double driverSelf = 0;
};

SpanSums
sumSpans(const SpanLog &log, const std::vector<uint64_t> &self,
         size_t begin, size_t end)
{
    SpanSums s;
    for (size_t i = begin; i < end; ++i) {
        const Span &sp = log.spans()[i];
        const double d = static_cast<double>(sp.durNs) * 1e-9;
        if (sp.parent < 0) {
            s.byCat[sp.cat] += d;
            s.topLevel += d;
        }
        if (std::strcmp(sp.cat, "sim") == 0)
            s.byName[sp.name] += d;
        if (std::strcmp(sp.cat, "driver") == 0)
            s.driverSelf += static_cast<double>(self[i]) * 1e-9;
    }
    return s;
}

template <typename F>
double
medianOf(const std::vector<SpanSums> &v, F &&f)
{
    std::vector<double> x;
    for (const auto &s : v)
        x.push_back(f(s));
    return median(x);
}

double
cat(const SpanSums &s, const char *c)
{
    const auto it = s.byCat.find(c);
    return it == s.byCat.end() ? 0 : it->second;
}

double
simName(const SpanSums &s, const char *n)
{
    const auto it = s.byName.find(n);
    return it == s.byName.end() ? 0 : it->second;
}

/** The span log aggregated per (track, category, name). */
std::string
layerTable(const SpanLog &log, const std::vector<uint64_t> &self)
{
    struct Row
    {
        uint64_t calls = 0, totalNs = 0, selfNs = 0;
    };
    std::map<std::tuple<uint32_t, std::string, std::string>, Row> rows;
    for (size_t i = 0; i < log.spans().size(); ++i) {
        const Span &s = log.spans()[i];
        Row &r = rows[{s.track, s.cat, s.name}];
        ++r.calls;
        r.totalNs += s.durNs;
        r.selfNs += self[i];
    }
    std::ostringstream o;
    char line[200];
    std::snprintf(line, sizeof line, "%-6s %-12s %-26s %9s %12s %12s\n",
                  "track", "category", "span", "calls", "total_s",
                  "self_s");
    o << line;
    for (const auto &[k, r] : rows) {
        std::snprintf(line, sizeof line,
                      "%-6s %-12s %-26s %9llu %12.6f %12.6f\n",
                      std::get<0>(k) == 1 ? "tensor" : "probe",
                      std::get<1>(k).c_str(), std::get<2>(k).c_str(),
                      static_cast<unsigned long long>(r.calls),
                      static_cast<double>(r.totalNs) * 1e-9,
                      static_cast<double>(r.selfNs) * 1e-9);
        o << line;
    }
    return o.str();
}

std::vector<Metric>
perLayer(Session &s, Workload &w, const Args &a, const std::string &cfg)
{
    s.setup();
    const double phase = a.seconds / 3;
    const std::vector<IterRecord> plain = s.timedPhase(phase);

    SpanLog &log = s.log();
    log.setEnabled(true);
    log.setTrack(1);
    const std::vector<IterRecord> traced = s.timedPhase(phase);

    const Stats drvStats = s.device().driver().stats();
    const StorageGauges gauges = s.device().group().storageGauges();
    const Geometry geo = w.geometry();

    // Socket phase: the same program and inputs on two shard worker
    // processes; the group and wire metrics come from it. Its counts
    // must equal the in-process ones exactly.
    std::vector<IterRecord> socketRecs;
    if (std::unique_ptr<Workload> twin = w.socketTwin()) {
        s.release();
        Session ts(*twin, a);
        ts.setup();
        socketRecs = ts.timedPhase(phase);
        if (!(*ts.arch() == *s.arch()))
            s.archError("socket deployment counts " + ts.arch()->str() +
                        " differ from in-process " + s.arch()->str());
        s.absorb(ts);
    }

    // ISA probe: the same kernel through Driver calls over a timing
    // sink, on a second simulator group of the same geometry.
    std::vector<double> probeTotals;
    std::vector<std::pair<size_t, size_t>> probeSpans;
    double genUopsPerS = 0;
    const size_t probeBegin = log.spans().size();
    if (w.hasProbe()) {
        log.setTrack(2);
        SimulatorGroup group(geo, w.config());
        TimingSink sink(group, log);
        Driver drv(sink, geo, Driver::Mode::Parallel);
        drv.setTraceCacheEnabled(w.config().traceCache);
        drv.setBulkIoEnabled(w.config().bulkIo);
        log.setIteration(0);
        w.probeIterate(drv, sink, 0, log);
        s.account(w.check(0));
        const uint64_t start = nowNs();
        for (size_t i = 1; probeTotals.size() < Session::kMinIterations ||
                           seconds(start, nowNs()) < phase;
             ++i) {
            const size_t k = i % w.inputSets();
            log.setIteration(static_cast<uint32_t>(i));
            const Stats before = group.stats();
            const size_t b = log.spans().size();
            probeTotals.push_back(w.probeIterate(drv, sink, k, log).total());
            probeSpans.emplace_back(b, log.spans().size());
            s.expectArch(ArchCounts::delta(before, group.stats()),
                         "ISA-probe iteration");
            s.account(w.check(k));
        }

        // Driver generation rate into a buffer (no simulation).
        BufferSink buf;
        Driver gen(buf, geo, Driver::Mode::Parallel);
        w.probeCompute(gen);
        const uint64_t u0 = buf.total();
        const uint64_t g0 = nowNs();
        do {
            w.probeCompute(gen);
        } while (seconds(g0, nowNs()) < 0.25);
        genUopsPerS = static_cast<double>(buf.total() - u0) /
                      seconds(g0, nowNs());
    }
    log.setEnabled(false);

    const std::vector<uint64_t> self = log.selfNs();
    std::vector<SpanSums> tSums, pSums;
    std::vector<double> coverage, plainTotals, tracedTotals;
    for (const auto &r : traced) {
        tSums.push_back(sumSpans(log, self, r.spanBegin, r.spanEnd));
        coverage.push_back(tSums.back().topLevel / r.t.total());
        tracedTotals.push_back(r.t.total());
    }
    for (const auto &r : plain)
        plainTotals.push_back(r.t.total());
    for (const auto &[b, e] : probeSpans)
        pSums.push_back(sumSpans(log, self, b, e));
    double traceBuild = 0;
    for (size_t i = probeBegin; i < log.spans().size(); ++i)
        if (std::strcmp(log.spans()[i].name, "prepareTrace") == 0)
            traceBuild += static_cast<double>(log.spans()[i].durNs) * 1e-9;

    const ArchCounts &arch = *s.arch();
    const IterRecord &r0 = traced.front();
    const std::vector<IterRecord> &gw =
        socketRecs.empty() ? traced : socketRecs;
    const IterRecord &g0 = gw.front();
    std::vector<double> exchange, socketTotals;
    for (const auto &r : socketRecs)
        socketTotals.push_back(r.t.total());
    for (const auto &r : gw)
        exchange.push_back(static_cast<double>(r.wire.exchangeNs) * 1e-9);
    auto catMedian = [&](const char *c) {
        return medianOf(tSums, [c](const SpanSums &x) { return cat(x, c); });
    };
    auto simMedian = [&](const char *n) {
        return medianOf(pSums,
                        [n](const SpanSums &x) { return simName(x, n); });
    };
    const double replay = medianOf(pSums, [](const SpanSums &x) {
        return simName(x, "performBatch") + simName(x, "submitBatch") +
               simName(x, "submitTrace") + simName(x, "flush");
    });
    const double logicUops =
        static_cast<double>(arch.op(OpClass::LogicH) +
                            arch.op(OpClass::LogicV)) *
        geo.numCrossbars;
    const double instr = static_cast<double>(r0.instructions);

    std::vector<Metric> m = {
        {"pim.elementwise_s", catMedian("elementwise"), "s"},
        {"pim.sort_s", catMedian("sort"), "s"},
        {"pim.reduce_s", catMedian("reduce"), "s"},
        {"pim.upload_s", catMedian("upload"), "s"},
        {"pim.readback_s", catMedian("readback"), "s"},
        {"pim.flush_s", catMedian("flush"), "s"},
        {"pim.self_s",
         w.hasProbe() ? fastest(plainTotals) - fastest(probeTotals) : 0, "s"},
        {"driver.self_s",
         medianOf(pSums, [](const SpanSums &x) { return x.driverSelf; }),
         "s"},
        {"driver.instructions", instr, "count"},
        {"driver.trace_hit_ratio",
         r0.t.computeInstructions
             ? static_cast<double>(r0.t.computeTraceHits) /
                   static_cast<double>(r0.t.computeInstructions)
             : 0,
         "ratio"},
        {"driver.trace_builds",
         static_cast<double>(drvStats.traceCacheMisses), "count"},
        {"driver.fused_uops",
         static_cast<double>(drvStats.fusionWaw + drvStats.fusionInitChain +
                             drvStats.fusionWindow +
                             drvStats.fusionWriteStripe),
         "count"},
        {"driver.gen_uops_per_s", genUopsPerS, "uops/s"},
        {"sim.replay_s", replay, "s"},
        {"sim.ns_per_xbar_uop",
         w.hasProbe() && logicUops > 0 ? replay * 1e9 / logicUops : 0,
         "ns"},
        {"sim.trace_build_s", traceBuild, "s"},
        {"sim.bulk_write_s", simMedian("writeBulk"), "s"},
        {"sim.bulk_read_s", simMedian("readBulk"), "s"},
        {"sim.uops.logic_h", static_cast<double>(arch.op(OpClass::LogicH)),
         "count"},
        {"sim.uops.logic_v", static_cast<double>(arch.op(OpClass::LogicV)),
         "count"},
        {"sim.uops.move", static_cast<double>(arch.op(OpClass::Move)),
         "count"},
        {"sim.uops.write", static_cast<double>(arch.op(OpClass::Write)),
         "count"},
        {"sim.uops.read", static_cast<double>(arch.op(OpClass::Read)),
         "count"},
        {"sim.uops.mask",
         static_cast<double>(arch.op(OpClass::CrossbarMask) +
                             arch.op(OpClass::RowMask)),
         "count"},
        {"sim.resident_mb",
         static_cast<double>(gauges.residentBytes) / (1 << 20), "MB"},
        {"sim.blocks_present", static_cast<double>(gauges.blocksPresent),
         "count"},
        {"group.boundary_moves", static_cast<double>(g0.boundaryMoves),
         "count"},
        {"group.exchange_s", median(exchange), "s"},
        {"wire.round_trips_per_instr",
         g0.instructions ? static_cast<double>(g0.wire.roundTrips) /
                               static_cast<double>(g0.instructions)
                         : 0,
         "ratio"},
        {"wire.bytes_tx", static_cast<double>(g0.wire.bytesTx), "bytes"},
        {"wire.bytes_rx", static_cast<double>(g0.wire.bytesRx), "bytes"},
        {"wire.trace_hits", static_cast<double>(g0.wire.traceHits), "count"},
        {"wire.socket_time_ratio",
         socketRecs.empty() ? 0
                            : fastest(socketTotals) / fastest(plainTotals),
         "ratio"},
        {"trace.coverage", median(coverage), "ratio"},
        {"trace.overhead", fastest(tracedTotals) / fastest(plainTotals) - 1,
         "ratio"},
    };

    namespace fs = std::filesystem;
    const std::string stem =
        (fs::path(a.out) /
         (std::string(w.name()) + "-seed" + std::to_string(a.seed)))
            .string();
    const std::string table = layerTable(log, self);
    std::printf("%s", table.c_str());
    std::ofstream(stem + ".layers.txt") << table;
    if (!log.writeChrome(stem + ".trace.json", cfg))
        std::fprintf(stderr, "pimbench: could not write %s.trace.json\n",
                     stem.c_str());
    else
        std::printf("chrome trace: %s.trace.json\n", stem.c_str());
    return m;
}

std::string
resultLine(const Session &s, const std::vector<Metric> &metrics)
{
    std::ostringstream o;
    o << "{\"correct\": " << (s.ok() ? "true" : "false")
      << ", \"attempted\": " << s.attempted()
      << ", \"failed\": " << s.failed() << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        o << (i ? ", " : "") << jsonString(metrics[i].name)
          << ": {\"value\": " << jsonNumber(metrics[i].value)
          << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    o << "}}";
    return o.str();
}

int
run(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const std::vector<std::string> scrubbed = scrubEnvironment();
    const int cpu = pinToOneCpu();
    std::unique_ptr<Workload> w = makeWorkload(a.workload, a.seed);
    if (!w)
        usage("unknown workload " + a.workload);
    std::filesystem::create_directories(a.out);
    const std::string cfg = configRecord(a, *w, scrubbed, cpu);
    std::printf("config %s\n", cfg.c_str());

    Session s(*w, a);
    std::vector<Metric> metrics;
    std::string samples = "null";
    try {
        metrics = a.trace ? perLayer(s, *w, a, cfg)
                          : endToEnd(s, *w, a, samples);
        s.crossRunCheck();
    } catch (const std::exception &e) {
        s.thrown(e.what());
    }
    for (const auto &m : metrics)
        std::printf("%-28s %22.10g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const double mismatch =
        s.attempted() ? static_cast<double>(s.failed()) /
                            static_cast<double>(s.attempted())
                      : 1;
    std::printf("%-28s %22.10g ratio (%llu of %llu checked values)\n",
                "mismatch_ratio", mismatch,
                static_cast<unsigned long long>(s.failed()),
                static_cast<unsigned long long>(s.attempted()));
    for (const auto &e : s.errors())
        std::fprintf(stderr, "pimbench: FAILED %s\n", e.c_str());

    const std::string line = resultLine(s, metrics);
    std::ofstream(
        (std::filesystem::path(a.out) /
         (std::string(w->name()) + "-seed" + std::to_string(a.seed) +
          "-trace" + (a.trace ? "1" : "0") + ".json"))
            .string())
        << "{\"config\": " << cfg << ", \"result\": " << line
        << ", \"samples\": " << samples << "}\n";
    std::fflush(stderr);
    std::printf("%s\n", line.c_str());
    return s.ok() && !metrics.empty() ? 0 : 1;
}

} // namespace
} // namespace pimbench

int
main(int argc, char **argv)
{
    try {
        return pimbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pimbench: %s\n", e.what());
        return 1;
    }
}
