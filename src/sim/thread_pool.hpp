/**
 * @file
 * Persistent worker pool for the execution engine.
 *
 * Batch execution dispatches one task per shard many thousands of
 * times per second, so workers must be persistent (spawning threads
 * per batch would dwarf the simulation work). The pool spawns
 * size()-1 workers and the calling thread executes its own share
 * inside parallelFor, so a pool of size 1 degenerates to an inline
 * loop with zero synchronisation — the engine's default one-thread
 * configuration.
 */
#ifndef PYPIM_SIM_THREAD_POOL_HPP
#define PYPIM_SIM_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pypim
{

/** Fixed-size fork-join pool with a work-stealing parallel-for. */
class ThreadPool
{
  public:
    /**
     * @p threads is the TOTAL parallelism including the calling
     * thread; the pool spawns threads-1 workers. 0 is clamped to 1.
     * @p pinWorkers pins each spawned worker to a distinct host core
     * (worker i to core (pinBase + i + 1) mod hardware_concurrency;
     * the calling thread is never pinned — it belongs to the
     * application). @p pinBase staggers multiple pools in one process
     * onto disjoint cores (the multi-device engine passes its
     * sub-device offset; see sharded_engine.cpp). A no-op on
     * platforms without pthread_setaffinity_np; whether pinning
     * actually took is reported by pinnedWorkers().
     */
    explicit ThreadPool(uint32_t threads, bool pinWorkers = false,
                        uint32_t pinBase = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (workers + calling thread). */
    uint32_t size() const { return nThreads_; }

    /** Workers successfully pinned to a core (0 when not requested
     *  or unsupported on this platform). */
    uint32_t pinnedWorkers() const { return pinned_; }

    /**
     * Invoke fn(i) for every i in [0, tasks), distributing indices
     * over the workers and the calling thread; returns when all
     * invocations completed. The first exception thrown by any fn is
     * rethrown here (remaining tasks still run to completion).
     * Not reentrant: one parallelFor at a time per pool.
     */
    void parallelFor(uint32_t tasks,
                     const std::function<void(uint32_t)> &fn);

  private:
    void workerLoop();
    void runTasks();

    const uint32_t nThreads_;
    uint32_t pinned_ = 0;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable cvStart_;
    std::condition_variable cvDone_;
    uint64_t generation_ = 0;
    uint32_t tasks_ = 0;
    uint32_t busyWorkers_ = 0;
    const std::function<void(uint32_t)> *fn_ = nullptr;
    std::atomic<uint32_t> next_{0};
    std::exception_ptr error_;
    bool stop_ = false;
};

} // namespace pypim

#endif // PYPIM_SIM_THREAD_POOL_HPP
