/**
 * @file
 * The native work-stealing thread pool (Section IV-C analog).
 *
 * A library-based, child-stealing runtime in the spirit of Intel TBB:
 * per-worker Chase-Lev deques, pluggable victim selection, and
 * blocking-style joins in which the waiting thread keeps executing local
 * and stolen tasks.  Deliberately lightweight: no exceptions across
 * tasks, no cancellation — the paper credits the same omissions for its
 * runtime's competitive single-socket performance (Table II).
 *
 * Scheduling policy comes from the same `src/sched/` components the
 * simulator runs: `PoolOptions` carries a `sched::PolicyConfig` plus a
 * worker-cluster split (a CoreTopology), and the pool assembles victim
 * selection, the work-biasing steal gate, and the mug trigger from it.
 * Without hardware preemption, a native "mug" is the policy-directed
 * migration of *queued* work: a starved fast-cluster worker targets the
 * most loaded busy slower worker's deque directly instead of whatever
 * victim selection would pick.
 */

#ifndef AAWS_RUNTIME_WORKER_POOL_H
#define AAWS_RUNTIME_WORKER_POOL_H

#include <memory>
#include <vector>

#include "runtime/backend.h"
#include "runtime/chase_lev_deque.h"

namespace aaws {

/**
 * Fixed-size work-stealing pool.  The constructing thread is "worker 0"
 * (the master) and participates in execution whenever it waits on a
 * TaskGroup; `threads - 1` additional worker threads are spawned.
 *
 * Adds to the RuntimeBackend skeleton only its steal mechanism: one
 * Chase-Lev deque per worker, whose size estimates are the SchedView
 * occupancy probe, raided directly by thieves and muggers.
 */
class WorkerPool : public RuntimeBackend
{
  public:
    /**
     * @param threads Total workers including the master (>= 1).
     * @param hooks Optional activity observer (borrowed; must outlive
     *              the pool).  See runtime/hooks.h.
     */
    explicit WorkerPool(int threads, SchedulerHooks *hooks = nullptr);

    /**
     * @param threads Total workers including the master (>= 1).
     * @param options Policy assembly + core-type split + hooks.
     */
    WorkerPool(int threads, const PoolOptions &options);

    ~WorkerPool() override;

    /** Push a heap task on the current worker's deque. */
    void spawnTask(RtTask *task) override;

    /**
     * Take one unit of work: own deque first, then a policy-selected
     * victim (gated by work-biasing), then — for a starved big worker
     * under work-mugging — a mug-targeted steal.  Returns nullptr when
     * nothing was found this attempt.
     */
    RtTask *tryTakeTask() override;

  private:
    RtTask *tryMug(int self);

    int64_t dequeSize(int worker) const override
    {
        return deques_[worker]->sizeEstimate();
    }

    std::vector<std::unique_ptr<ChaseLevDeque<RtTask *>>> deques_;
    /** Stateless fallback for foreign threads (no own deque). */
    sched::OccupancyVictimSelector foreign_victim_;
};

} // namespace aaws

#endif // AAWS_RUNTIME_WORKER_POOL_H
