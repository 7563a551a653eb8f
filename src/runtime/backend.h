/**
 * @file
 * RuntimeBackend: the seam between task-parallel algorithms and the
 * scheduler that runs them, and the pool skeleton its native backends
 * share.
 *
 * Two native backends implement it — `runtime::WorkerPool` (per-worker
 * Chase-Lev deques raided directly by thieves) and `chan::ChannelPool`
 * (explicit steal-request messages over bounded channels, modeled on
 * aprell/tasking-2.0).  TaskGroup, parallelFor, parallelInvoke, and the
 * serving ingest loop are written against this interface, so every
 * algorithm and all five AAWS policy variants run on either backend
 * unchanged.
 *
 * The contract mirrors what TaskGroup::wait needs to make a blocking
 * join productive: spawnTask from a pool thread, enqueueTask from any
 * thread, and a non-blocking tryTakeTask the waiter can spin on.
 *
 * Everything the two pools do alike lives here once: the policy stack
 * and per-worker victim selectors, the activity-hint protocol (hint
 * bits plus the per-cluster census, paper Section III-A), the
 * cross-thread injection queue, parking and the worker loop, thread
 * identity, and the steal/mug counters.  A concrete pool supplies only
 * its steal mechanism: spawnTask, tryTakeTask, and the occupancy probe
 * SchedView::dequeSize.
 */

#ifndef AAWS_RUNTIME_BACKEND_H
#define AAWS_RUNTIME_BACKEND_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "model/topology.h"
#include "runtime/hooks.h"
#include "runtime/task.h"
#include "sched/policy_stack.h"
#include "sched/view.h"

namespace aaws {

/** Selects which native scheduler a bench/example/service runs on. */
enum class BackendKind
{
    /** runtime::WorkerPool — Chase-Lev deques, thieves raid directly. */
    deque,
    /** chan::ChannelPool — steal-request messages over channels. */
    chan,
};

/** Stable lowercase name ("deque" / "chan") for CLI and artifacts. */
const char *backendName(BackendKind kind);

/**
 * Strict parse of a backend name.  Returns false (leaving `out`
 * untouched) on anything but exactly "deque" or "chan" — callers decide
 * whether that is fatal (flags) or a warning (environment), mirroring
 * exp::parseJobs.
 */
bool parseBackendKind(const char *text, BackendKind &out);

/**
 * Scheduling-policy options of a native pool.
 *
 * The defaults reproduce the historical pool behavior exactly: all
 * workers form one cluster, so the work-biasing gate never fires,
 * nobody has a slower cluster to mug, and victim selection is
 * occupancy-based.
 */
struct PoolOptions
{
    /** Policy-component switches (see sched/policy_stack.h). */
    sched::PolicyConfig policy{};
    /**
     * Worker-cluster assignment: worker w belongs to
     * topology.clusterOf(w).  Must cover exactly the pool's worker
     * count when non-empty; empty means one homogeneous cluster.  Only
     * the cluster structure matters to a native pool — the model
     * parameters inside are never read.
     */
    CoreTopology topology;
    /** Optional activity observer (borrowed; must outlive the pool). */
    SchedulerHooks *hooks = nullptr;

    /** The cluster assignment of a pool of `threads` workers. */
    CoreTopology workerTopology(int threads) const;
};

/**
 * Native scheduler: a fixed-size worker pool whose constructing thread
 * is worker 0 (the master) and participates whenever it waits on a
 * TaskGroup; `threads - 1` additional worker threads run workerLoop.
 *
 * Implements sched::SchedView with concurrent snapshots (relaxed hint
 * and census loads) so the shared policy components can drive either
 * backend; each backend adds its own occupancy probe (dequeSize).
 */
class RuntimeBackend : protected sched::SchedView
{
  public:
    ~RuntimeBackend() override;

    RuntimeBackend(const RuntimeBackend &) = delete;
    RuntimeBackend &operator=(const RuntimeBackend &) = delete;

    /** Total workers including the master (also the SchedView count). */
    int numWorkers() const final
    {
        return static_cast<int>(victims_.size());
    }

    /**
     * Worker index of the calling thread: its own index on a pool
     * thread, 0 on the thread that constructed the pool (the master),
     * -1 on any other thread.
     */
    int
    currentWorker() const
    {
        if (tls_pool == this)
            return tls_worker;
        return &tls_worker == master_ ? 0 : -1;
    }

    /**
     * Push a heap task as stealable work of the current worker.  A
     * foreign thread's spawn falls back to enqueueTask.
     */
    virtual void spawnTask(RtTask *task) = 0;

    /**
     * Submit a heap task from *any* thread — the open-loop ingest path.
     * Thread-safe; the task lands in a mutex-guarded FIFO injection
     * queue that every worker drains alongside stealing (behind the
     * biasing gate), and a sleeping worker is woken.
     */
    void enqueueTask(RtTask *task);

    /**
     * Take one unit of work, or nullptr when nothing was found this
     * attempt.  Drives the activity-hint hooks: the second consecutive
     * failed attempt signals waiting; the next success signals active.
     */
    virtual RtTask *tryTakeTask() = 0;

    /** Total successful steals (statistics; includes mugs). */
    uint64_t
    steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

    /** Mug-policy-directed steal attempts by starved big workers. */
    uint64_t
    mugAttempts() const
    {
        return mug_attempts_.load(std::memory_order_relaxed);
    }

    /** Mug attempts that actually migrated a task. */
    uint64_t
    mugs() const
    {
        return mugs_.load(std::memory_order_relaxed);
    }

    /** The policy switches this backend was assembled from. */
    const sched::PolicyConfig &
    policyConfig() const
    {
        return policy_config_;
    }

    /** Spawn a closure as a stealable task on the current worker. */
    template <typename F>
    void
    spawn(F &&fn)
    {
        spawnTask(new detail::ClosureTask<std::decay_t<F>>(
            std::forward<F>(fn)));
    }

    /** Submit a closure from any thread (see enqueueTask). */
    template <typename F>
    void
    enqueue(F &&fn)
    {
        enqueueTask(new detail::ClosureTask<std::decay_t<F>>(
            std::forward<F>(fn)));
    }

  protected:
    /**
     * Assemble policy, hint state and census for `threads` workers.
     * Starts no thread: a derived constructor calls startWorkers() as
     * its last statement and its destructor calls stopWorkers() first,
     * so workers never run tryTakeTask on a half-built or
     * half-destroyed pool.
     */
    RuntimeBackend(int threads, const PoolOptions &options);

    /** Launch workers 1..numWorkers()-1 into workerLoop. */
    void startWorkers();

    /** Stop and join every worker thread. */
    void stopWorkers();

    /** Worker `self` (-1: foreign, ignored) found work: hint active. */
    void
    noteFound(int self)
    {
        if (self < 0)
            return;
        HintState &hint = hints_[self];
        hint.failed = 0;
        if (hint.waiting.load(std::memory_order_relaxed)) {
            hint.waiting.store(false, std::memory_order_relaxed);
            cluster_active_[topo_.clusterOf(self)].fetch_add(
                1, std::memory_order_relaxed);
            if (hooks_)
                hooks_->onWorkerActive(self);
        }
    }

    /** Worker `self` (-1: foreign, ignored) failed a take attempt. */
    void
    noteFailed(int self)
    {
        if (self < 0)
            return;
        HintState &hint = hints_[self];
        // The paper toggles the activity bit on the *second* consecutive
        // failed steal attempt (Section III-A); the count keeps running
        // (saturating) so the mug trigger can read the starvation
        // streak.
        hint.failed = std::min(hint.failed + 1, 1 << 20);
        if (hint.failed == 2 &&
            !hint.waiting.load(std::memory_order_relaxed)) {
            hint.waiting.store(true, std::memory_order_relaxed);
            cluster_active_[topo_.clusterOf(self)].fetch_sub(
                1, std::memory_order_relaxed);
            if (hooks_)
                hooks_->onWorkerWaiting(self);
        }
    }

    /** Consecutive failed attempts of worker `self` (owner only). */
    int failedStreak(int self) const { return hints_[self].failed; }

    /**
     * Oldest injected task, or nullptr.  The count mirrors the queue
     * size so the take path skips the mutex when empty — the common
     * case for closed-loop workloads.
     */
    RtTask *
    tryTakeInjected()
    {
        if (injected_count_.load(std::memory_order_acquire) == 0)
            return nullptr;
        return popInjected();
    }

    /** Wake one parked worker, if any is parked. */
    void
    wakeOne()
    {
        if (sleepers_.load(std::memory_order_acquire) > 0)
            notifyOne();
    }

    // --- sched::SchedView (concurrent snapshots), all but dequeSize ----

    sched::CoreActivity
    activity(int core) const final
    {
        return hints_[core].waiting.load(std::memory_order_relaxed)
                   ? sched::CoreActivity::stealing
                   : sched::CoreActivity::running;
    }

    int numClusters() const final { return topo_.numClusters(); }

    int clusterOf(int core) const final { return topo_.clusterOf(core); }

    int
    clusterSize(int cluster) const final
    {
        return topo_.cluster(cluster).count;
    }

    int
    clusterActive(int cluster) const final
    {
        return cluster_active_[cluster].load(std::memory_order_relaxed);
    }

    SchedulerHooks *hooks_ = nullptr;
    sched::PolicyStack policy_;
    /** One stateful selector per worker (pick() is single-threaded). */
    std::vector<std::unique_ptr<sched::VictimSelector>> victims_;
    /** Worker-cluster assignment (PoolOptions::workerTopology). */
    CoreTopology topo_;
    std::atomic<uint64_t> steals_{0};
    std::atomic<uint64_t> mug_attempts_{0};
    std::atomic<uint64_t> mugs_{0};

  private:
    /**
     * Per-worker activity-hint state, one cache line per worker.
     * `failed` is owner-thread only; `waiting` is written by the owner
     * and read by foreign threads (the census view), hence atomic.
     */
    struct alignas(kCacheLine) HintState
    {
        int failed = 0;
        std::atomic<bool> waiting{false};
    };

    void workerLoop(int index);
    RtTask *popInjected();
    void notifyOne();

    /** Identity of a pool thread; written only by workerLoop. */
    static inline thread_local const RuntimeBackend *tls_pool = nullptr;
    static inline thread_local int tls_worker = -1;

    sched::PolicyConfig policy_config_{};
    /** Array (not vector): atomics are not movable. */
    std::unique_ptr<HintState[]> hints_;
    /** Hint-bit census per cluster (the biasing gate's input). */
    std::unique_ptr<std::atomic<int>[]> cluster_active_;
    /**
     * The constructing thread (worker 0), identified by the address of
     * its tls_worker: as unique among live threads as a thread id, and
     * compared without the library call get_id() costs on every master
     * spawn and take.
     */
    const int *master_ = &tls_worker;
    std::vector<std::thread> threads_;
    std::atomic<bool> stop_{false};

    std::mutex sleep_mutex_;
    std::condition_variable sleep_cv_;
    std::atomic<int> sleepers_{0};

    /** Foreign-thread injection queue (enqueueTask). */
    std::mutex inject_mutex_;
    std::deque<RtTask *> injected_;
    std::atomic<size_t> injected_count_{0};
};

} // namespace aaws

#endif // AAWS_RUNTIME_BACKEND_H
