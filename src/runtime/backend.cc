#include "runtime/backend.h"

#include <chrono>
#include <cstring>

#include "common/logging.h"

namespace aaws {

const char *
backendName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::deque:
        return "deque";
    case BackendKind::chan:
        return "chan";
    }
    return "?";
}

bool
parseBackendKind(const char *text, BackendKind &out)
{
    if (!text)
        return false;
    if (std::strcmp(text, "deque") == 0) {
        out = BackendKind::deque;
        return true;
    }
    if (std::strcmp(text, "chan") == 0) {
        out = BackendKind::chan;
        return true;
    }
    return false;
}

CoreTopology
PoolOptions::workerTopology(int threads) const
{
    AAWS_ASSERT(threads >= 1, "pool needs at least one worker");
    if (topology.empty()) {
        // Built directly rather than parsed: hosts can exceed the
        // preset grammar's 64-core limit.
        CoreCluster cluster;
        cluster.count = threads;
        return CoreTopology({cluster});
    }
    AAWS_ASSERT(topology.numCores() == threads,
                "pool topology has %d cores for %d workers",
                topology.numCores(), threads);
    return topology;
}

RuntimeBackend::RuntimeBackend(int threads, const PoolOptions &options)
    : hooks_(options.hooks),
      policy_(sched::makePolicyStack(options.policy)),
      topo_(options.workerTopology(threads)),
      policy_config_(options.policy),
      hints_(std::make_unique<HintState[]>(threads)),
      cluster_active_(
          std::make_unique<std::atomic<int>[]>(topo_.numClusters()))
{
    victims_.reserve(threads);
    for (int i = 0; i < threads; ++i) {
        // Stateful selectors (random) must not be shared across
        // threads: one per worker, streams decorrelated by index.
        victims_.push_back(sched::makeVictimSelector(
            options.policy.victim,
            options.policy.victim_seed + static_cast<uint64_t>(i)));
    }
    // All hint bits power up active, as the paper's cores do.
    for (int k = 0; k < topo_.numClusters(); ++k)
        cluster_active_[k].store(topo_.cluster(k).count,
                                 std::memory_order_relaxed);
}

RuntimeBackend::~RuntimeBackend()
{
    AAWS_ASSERT(threads_.empty(),
                "pool destroyed with its workers still running");
    while (RtTask *task = tryTakeInjected())
        delete task;
}

void
RuntimeBackend::startWorkers()
{
    threads_.reserve(numWorkers() - 1);
    try {
        for (int i = 1; i < numWorkers(); ++i)
            threads_.emplace_back([this, i] { workerLoop(i); });
    } catch (...) {
        // A thread that failed to start must not leave its siblings
        // running past the failed constructor.
        stopWorkers();
        throw;
    }
}

void
RuntimeBackend::stopWorkers()
{
    stop_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        sleep_cv_.notify_all();
    }
    for (auto &thread : threads_)
        thread.join();
    threads_.clear();
}

void
RuntimeBackend::enqueueTask(RtTask *task)
{
    {
        std::lock_guard<std::mutex> lock(inject_mutex_);
        injected_.push_back(task);
        injected_count_.fetch_add(1, std::memory_order_release);
    }
    wakeOne();
}

RtTask *
RuntimeBackend::popInjected()
{
    std::lock_guard<std::mutex> lock(inject_mutex_);
    if (injected_.empty())
        return nullptr;
    RtTask *task = injected_.front();
    injected_.pop_front();
    injected_count_.fetch_sub(1, std::memory_order_release);
    return task;
}

void
RuntimeBackend::notifyOne()
{
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_one();
}

void
RuntimeBackend::workerLoop(int index)
{
    tls_pool = this;
    tls_worker = index;
    int idle_spins = 0;
    while (!stop_.load(std::memory_order_acquire)) {
        RtTask *task = tryTakeTask();
        if (task) {
            idle_spins = 0;
            task->invoke(task);
            continue;
        }
        if (++idle_spins < 64) {
            std::this_thread::yield();
            continue;
        }
        // Deep sleep until new work arrives or shutdown: the rest
        // decision a software pacing governor maps to v_min.  The 1 ms
        // backstop doubles as the channel backend's liveness guarantee
        // for request service: a parked victim re-checks its mailbox at
        // least once a millisecond even if every wakeup notification
        // went to another worker.
        if (hooks_)
            hooks_->onRest(index);
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        sleepers_.fetch_add(1, std::memory_order_acq_rel);
        sleep_cv_.wait_for(lock, std::chrono::milliseconds(1));
        sleepers_.fetch_sub(1, std::memory_order_acq_rel);
        idle_spins = 0;
    }
    tls_pool = nullptr;
    tls_worker = -1;
}

} // namespace aaws
