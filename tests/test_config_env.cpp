/**
 * @file
 * Directed tests for the environment-knob parser
 * (EngineConfig::fromEnv): malformed or out-of-range values of
 * PYPIM_THREADS / PYPIM_DEVICES must throw a clear pypim::Error
 * instead of silently misconfiguring the stack (atol-style parsing
 * read "abc" as 0 and "12abc" as 12), the boolean knobs must
 * reject anything but on|off|1|0, and the removed oracle switches
 * must fail loudly, naming what replaces them.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/config.hpp"
#include "common/error.hpp"

using namespace pypim;

namespace
{

/** Scoped setter restoring the previous value on destruction. */
class EnvVar
{
  public:
    EnvVar(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            had_ = true;
            old_ = old;
        }
        ::setenv(name, value, 1);
    }
    ~EnvVar()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

} // namespace

TEST(ConfigEnv, ThreadsRejectsNonNumeric)
{
    for (const char *bad : {"abc", "12abc", "1.5", "0x8", "", " 4",
                            "\n8", "\r8", "\t8", "+4", "-1",
                            "99999999999999999999"}) {
        EnvVar v("PYPIM_THREADS", bad);
        EXPECT_THROW(EngineConfig::fromEnv(), Error)
            << "PYPIM_THREADS='" << bad << "'";
    }
}

TEST(ConfigEnv, ThreadsRejectsOutOfRange)
{
    EnvVar v("PYPIM_THREADS", "1048577");  // > 2^20
    EXPECT_THROW(EngineConfig::fromEnv(), Error);
}

TEST(ConfigEnv, ThreadsParsesValidValues)
{
    {
        EnvVar v("PYPIM_THREADS", "0");
        EXPECT_EQ(EngineConfig::fromEnv().threads, 0u);
    }
    {
        EnvVar v("PYPIM_THREADS", "16");
        EXPECT_EQ(EngineConfig::fromEnv().threads, 16u);
    }
}

TEST(ConfigEnv, DevicesRejectsMalformedAndNonPow2)
{
    for (const char *bad : {"abc", "2x", "0", "3", "6", "-2", ""}) {
        EnvVar v("PYPIM_DEVICES", bad);
        EXPECT_THROW(EngineConfig::fromEnv(), Error)
            << "PYPIM_DEVICES='" << bad << "'";
    }
}

TEST(ConfigEnv, DevicesParsesPowersOfTwo)
{
    for (uint32_t n : {1u, 2u, 4u, 16u}) {
        EnvVar v("PYPIM_DEVICES", std::to_string(n).c_str());
        EXPECT_EQ(EngineConfig::fromEnv().devices, n);
    }
}

TEST(ConfigEnv, SwitchKnobsRejectJunk)
{
    {
        EnvVar v("PYPIM_PIPELINE", "yes");
        EXPECT_THROW(EngineConfig::fromEnv(), Error);
    }
    {
        EnvVar v("PYPIM_AFFINITY", "true");
        EXPECT_THROW(EngineConfig::fromEnv(), Error);
    }
}

TEST(ConfigEnv, AffinityParses)
{
    {
        EnvVar v("PYPIM_AFFINITY", "on");
        EXPECT_TRUE(EngineConfig::fromEnv().affinity);
    }
    {
        EnvVar v("PYPIM_AFFINITY", "0");
        EXPECT_FALSE(EngineConfig::fromEnv().affinity);
    }
}

TEST(ConfigEnv, XbarStorageParses)
{
    {
        EnvVar v("PYPIM_XBAR_STORAGE", "dense");
        EXPECT_EQ(EngineConfig::fromEnv().storage,
                  XbarStorage::Dense);
    }
    {
        EnvVar v("PYPIM_XBAR_STORAGE", "paged");
        EXPECT_EQ(EngineConfig::fromEnv().storage,
                  XbarStorage::Paged);
    }
}

TEST(ConfigEnv, XbarStorageRejectsJunk)
{
    // Case-sensitive exact match only: a typo must fail loudly, not
    // silently run the whole process on the wrong representation.
    for (const char *bad :
         {"Dense", "PAGED", "sparse", "1", "on", " paged", "paged "}) {
        EnvVar v("PYPIM_XBAR_STORAGE", bad);
        EXPECT_THROW(EngineConfig::fromEnv(), Error)
            << "PYPIM_XBAR_STORAGE='" << bad << "'";
    }
}

TEST(ConfigEnv, RemovedVariablesFailLoudly)
{
    // Any value, even one that used to select the default, throws: a
    // leftover export must not silently run something else. The
    // message names the variable and what replaces it.
    const struct
    {
        const char *name;
        const char *replacement;
    } removed[] = {
        {"PYPIM_ENGINE", "PYPIM_THREADS"},
        {"PYPIM_TRACE_CACHE", "setTraceCacheEnabled"},
        {"PYPIM_BULK_IO", "setBulkIoEnabled"},
        {"PYPIM_COMPILED_REPLAY", "setTraceCompilationEnabled"},
    };
    for (const auto &r : removed) {
        for (const char *value : {"on", "off", "1", "serial", ""}) {
            EnvVar v(r.name, value);
            try {
                (void)EngineConfig::fromEnv();
                ADD_FAILURE() << r.name << "='" << value
                              << "' was accepted";
            } catch (const Error &e) {
                const std::string msg = e.what();
                EXPECT_NE(msg.find(r.name), std::string::npos) << msg;
                EXPECT_NE(msg.find(r.replacement), std::string::npos)
                    << msg;
            }
        }
    }
}

TEST(ConfigEnv, DefaultsWhenUnset)
{
    ::unsetenv("PYPIM_DEVICES");
    ::unsetenv("PYPIM_AFFINITY");
    ::unsetenv("PYPIM_XBAR_STORAGE");
    ::unsetenv("PYPIM_THREADS");
    const EngineConfig c = EngineConfig::fromEnv();
    EXPECT_EQ(c.threads, 1u)
        << "one thread, replayed inline, is the default";
    EXPECT_EQ(c.devices, 1u);
    EXPECT_FALSE(c.affinity);
    EXPECT_EQ(c.storage, XbarStorage::Paged)
        << "paged is the default representation; dense is the "
           "opt-in parity oracle";
}

TEST(ConfigEnv, TransportParses)
{
    {
        EnvVar v("PYPIM_TRANSPORT", "inproc");
        EXPECT_EQ(EngineConfig::fromEnv().transport,
                  TransportKind::Inproc);
    }
    {
        EnvVar v("PYPIM_TRANSPORT", "socket");
        EXPECT_EQ(EngineConfig::fromEnv().transport,
                  TransportKind::Socket);
    }
}

TEST(ConfigEnv, TransportRejectsJunk)
{
    // Case-sensitive exact match only: a typo must fail loudly, not
    // silently keep the sub-devices in-process.
    for (const char *bad : {"Socket", "INPROC", "tcp", "1", "on",
                            " socket", "socket ", "sockets", ""}) {
        EnvVar v("PYPIM_TRANSPORT", bad);
        EXPECT_THROW(EngineConfig::fromEnv(), Error)
            << "PYPIM_TRANSPORT='" << bad << "'";
    }
}

TEST(ConfigEnv, TransportDefaultsToInproc)
{
    ::unsetenv("PYPIM_TRANSPORT");
    EXPECT_EQ(EngineConfig::fromEnv().transport, TransportKind::Inproc);
}

TEST(ConfigEnv, FaultsForwardedVerbatim)
{
    // The spec is stored raw and validated at device construction
    // (sim/fault.hpp), so fromEnv itself accepts any string.
    EnvVar v("PYPIM_FAULTS", "seed=7:flip=25:stuck=2");
    EXPECT_EQ(EngineConfig::fromEnv().faults, "seed=7:flip=25:stuck=2");
}

TEST(ConfigEnv, VerifyStateParses)
{
    {
        EnvVar v("PYPIM_VERIFY_STATE", "on");
        EXPECT_TRUE(EngineConfig::fromEnv().verifyState);
    }
    {
        EnvVar v("PYPIM_VERIFY_STATE", "0");
        EXPECT_FALSE(EngineConfig::fromEnv().verifyState);
    }
    for (const char *bad : {"yes", "true", "ON", " on"}) {
        EnvVar v("PYPIM_VERIFY_STATE", bad);
        EXPECT_THROW(EngineConfig::fromEnv(), Error)
            << "PYPIM_VERIFY_STATE='" << bad << "'";
    }
}

TEST(ConfigEnv, FaultDefaultsWhenUnset)
{
    ::unsetenv("PYPIM_FAULTS");
    ::unsetenv("PYPIM_VERIFY_STATE");
    const EngineConfig c = EngineConfig::fromEnv();
    EXPECT_TRUE(c.faults.empty())
        << "no injection unless explicitly requested";
    EXPECT_FALSE(c.verifyState)
        << "verification is opt-in (O(resident data) per batch)";
}
