#include "runtime/worker_pool.h"

namespace aaws {

WorkerPool::WorkerPool(int threads, SchedulerHooks *hooks)
    : WorkerPool(threads, PoolOptions{{}, CoreTopology(), hooks})
{
}

WorkerPool::WorkerPool(int threads, const PoolOptions &options)
    : RuntimeBackend(threads, options)
{
    deques_.reserve(threads);
    for (int i = 0; i < threads; ++i)
        deques_.push_back(std::make_unique<ChaseLevDeque<RtTask *>>());
    startWorkers();
}

WorkerPool::~WorkerPool()
{
    stopWorkers();
    // Drain any un-executed tasks so they do not leak.
    for (auto &dq : deques_) {
        RtTask *task = nullptr;
        while (dq->steal(task))
            delete task;
    }
}

void
WorkerPool::spawnTask(RtTask *task)
{
    int w = currentWorker();
    // Foreign threads (including another pool's master) cannot touch a
    // deque's owner end; their spawns fall back to the cross-thread
    // injection queue, which workers — and the spawner's own
    // TaskGroup::wait loop — drain.
    if (w < 0) {
        enqueueTask(task);
        return;
    }
    if (hooks_)
        hooks_->onSpawn(w);
    deques_[w]->push(task);
    wakeOne();
}

RtTask *
WorkerPool::tryTakeTask()
{
    int self = currentWorker();
    RtTask *task = nullptr;
    if (self >= 0 && deques_[self]->pop(task)) {
        noteFound(self);
        return task;
    }
    // Work-biasing: a gated-out little worker charges a failed attempt
    // without touching anyone's deque, exactly as the simulator does.
    // The explicit SchedView upcast keeps the pool on the generic
    // virtual path — parking and deque atomics dominate here, so the
    // devirtualized template binding the simulator uses buys nothing.
    const sched::SchedView &view = *this;
    if (self >= 0 && !policy_.gate.allowSteal(view, self)) {
        noteFailed(self);
        return nullptr;
    }
    // Injected (open-loop arrival) work sits behind the biasing gate
    // like any foreign deque: a gated-out little never grabs a root
    // request an idle big could start sooner.
    if ((task = tryTakeInjected())) {
        noteFound(self);
        return task;
    }
    int victim = self >= 0 ? victims_[self]->pick(view, self)
                           : foreign_victim_.pick(view, self);
    if (victim >= 0) {
        if (hooks_)
            hooks_->onStealAttempt(self, victim);
        if (deques_[victim]->steal(task)) {
            steals_.fetch_add(1, std::memory_order_relaxed);
            if (hooks_)
                hooks_->onStealSuccess(self, victim);
            noteFound(self);
            return task;
        }
    }
    noteFailed(self);
    if (self >= 0 && (task = tryMug(self)))
        return task;
    return nullptr;
}

RtTask *
WorkerPool::tryMug(int self)
{
    // Work-mugging, native analog: without user-level interrupts a
    // library runtime cannot preempt a running task, so a starved
    // fast-cluster worker instead raids the *queued* work of the
    // busiest slower worker the mug policy singles out — bypassing
    // normal victim selection, which may have just failed on a stale
    // estimate.
    const sched::SchedView &view = *this;
    if (!policy_.mug.wantsMug(view, self, failedStreak(self)))
        return nullptr;
    int muggee = policy_.mug.pickMuggee(view, topo_.clusterOf(self));
    if (muggee < 0)
        return nullptr;
    mug_attempts_.fetch_add(1, std::memory_order_relaxed);
    if (hooks_)
        hooks_->onStealAttempt(self, muggee);
    RtTask *task = nullptr;
    if (!deques_[muggee]->steal(task))
        return nullptr;
    mugs_.fetch_add(1, std::memory_order_relaxed);
    steals_.fetch_add(1, std::memory_order_relaxed);
    if (hooks_) {
        hooks_->onMug(self, muggee);
        hooks_->onStealSuccess(self, muggee);
    }
    noteFound(self);
    return task;
}

} // namespace aaws
