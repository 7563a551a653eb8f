#include "exp/engine.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "exp/cache.h"
#include "kernels/registry.h"
#include "runtime/task_group.h"
#include "runtime/worker_pool.h"
#include "serve/spec.h"

namespace aaws {
namespace exp {

bool
parseJobs(const char *text, int &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    errno = 0;
    char *end = nullptr;
    long parsed = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    if (parsed < std::numeric_limits<int>::min() ||
        parsed > std::numeric_limits<int>::max())
        return false;
    out = static_cast<int>(parsed);
    return true;
}

int
resolveJobs(int requested, size_t batch_size)
{
    int jobs = requested;
    if (jobs <= 0) {
        if (const char *env = std::getenv("AAWS_EXP_JOBS")) {
            int parsed = 0;
            if (!parseJobs(env, parsed))
                warn("AAWS_EXP_JOBS='%s' is not a valid worker count; "
                     "ignored (using auto-detection)",
                     env);
            else if (parsed > 0)
                jobs = parsed;
        }
    }
    if (jobs <= 0)
        jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0)
        jobs = 1;
    // More workers than specs only adds pool churn.
    if (batch_size > 0 && static_cast<size_t>(jobs) > batch_size)
        jobs = static_cast<int>(batch_size);
    return jobs;
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Throttled done/hit/miss/ETA reporting on stderr. */
class ProgressReporter
{
  public:
    ProgressReporter(bool enabled, size_t total)
        : enabled_(enabled), total_(total), start_(Clock::now())
    {
    }

    void
    onRunDone(bool hit)
    {
        if (!enabled_)
            return;
        // The three counters only change together under this mutex, so
        // every printed line satisfies hits + misses == done (sampling
        // the engine's atomics after incrementing `done` could not
        // guarantee that).
        std::lock_guard<std::mutex> lock(mutex_);
        done_++;
        (hit ? hits_ : misses_)++;
        if (done_ == total_)
            return; // the final line comes from summary()
        double elapsed = secondsSince(start_);
        if (elapsed - last_print_ < 0.2)
            return;
        last_print_ = elapsed;
        double eta = elapsed * static_cast<double>(total_ - done_) /
                     static_cast<double>(done_);
        std::fprintf(stderr,
                     "[aaws-exp] %llu/%zu done, %llu hits, %llu misses, "
                     "%.1fs elapsed, eta %.1fs\n",
                     static_cast<unsigned long long>(done_), total_,
                     static_cast<unsigned long long>(hits_),
                     static_cast<unsigned long long>(misses_), elapsed,
                     eta);
    }

    void
    summary(const BatchStats &stats)
    {
        if (!enabled_)
            return;
        uint64_t runs = stats.hits + stats.misses;
        double cached = runs > 0 ? 100.0 * static_cast<double>(stats.hits) /
                                       static_cast<double>(runs)
                                 : 0.0;
        std::fprintf(stderr,
                     "[aaws-exp] batch complete: %llu runs, %llu hits, "
                     "%llu misses (%.1f%% cached), %d jobs, %.1fs\n",
                     static_cast<unsigned long long>(runs),
                     static_cast<unsigned long long>(stats.hits),
                     static_cast<unsigned long long>(stats.misses),
                     cached, stats.jobs, stats.elapsed_seconds);
    }

    Clock::time_point start() const { return start_; }

  private:
    bool enabled_;
    size_t total_;
    Clock::time_point start_;
    std::mutex mutex_;
    double last_print_ = 0.0;
    uint64_t done_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/**
 * Per-batch kernel memo: a sweep simulates the same (kernel, seed) DAG
 * under many configs, so each unique pair is generated at most once per
 * batch -- lazily, on the first cache miss that needs it -- and the
 * sealed, immutable DAG is shared by every concurrent simulation.  A
 * closed-loop spec needs (kernel, seed); a serving spec needs its
 * service-table samples' (kernel, deriveSeed(seed, k)).
 */
class KernelPool
{
  public:
    explicit KernelPool(const std::vector<RunSpec> &specs)
    {
        // Pre-create every slot serially so workers never mutate the
        // map; they only resolve keys and race on the per-slot once.
        for (const RunSpec &spec : specs) {
            if (!spec.serve) {
                slots_[{spec.kernel, spec.seed}];
                continue;
            }
            for (uint32_t k = 0; k < spec.serve->service_samples; ++k)
                slots_[{spec.kernel, serve::deriveSeed(spec.seed, k)}];
        }
    }

    const Kernel &
    get(const std::string &name, uint64_t seed)
    {
        Slot &slot = slots_.at({name, seed});
        std::call_once(slot.once, [&] {
            slot.kernel.emplace(makeKernel(name, seed));
        });
        return *slot.kernel;
    }

  private:
    struct Slot
    {
        std::once_flag once;
        std::optional<Kernel> kernel;
    };

    std::map<std::pair<std::string, uint64_t>, Slot> slots_;
};

/**
 * Per-batch service-table memo: a serving sweep runs many arrival
 * processes against few tables, and a table depends only on the spec's
 * closed-loop canonical form and service_samples (buildServiceTable).
 * Each distinct table is built at most once per batch, from the
 * batch's KernelPool, and shared read-only by every serving spec that
 * needs it.
 */
class ServiceTables
{
  public:
    ServiceTables(const std::vector<RunSpec> &specs, KernelPool &kernels)
        : kernels_(kernels)
    {
        for (const RunSpec &spec : specs)
            if (spec.serve)
                slots_[key(spec)];
    }

    const std::vector<serve::ServiceSample> &
    get(const RunSpec &spec)
    {
        Slot &slot = slots_.at(key(spec));
        std::call_once(slot.once, [&] {
            slot.table = buildServiceTable(
                spec, [&](uint64_t seed) -> const Kernel & {
                    return kernels_.get(spec.kernel, seed);
                });
        });
        return slot.table;
    }

    /** Machine runs spent on the tables built so far. */
    uint64_t
    runs() const
    {
        uint64_t total = 0;
        for (const auto &[key, slot] : slots_)
            total += slot.table.size();
        return total;
    }

  private:
    struct Slot
    {
        std::once_flag once;
        std::vector<serve::ServiceSample> table;
    };

    /** Tables are sampled untraced, so tracing is not part of the key. */
    static std::string
    key(const RunSpec &spec)
    {
        RunSpec closed = spec;
        closed.serve.reset();
        closed.collect_trace = false;
        return canonicalSpec(closed) +
               strfmt(";samples=%u", spec.serve->service_samples);
    }

    KernelPool &kernels_;
    std::map<std::string, Slot> slots_;
};

/**
 * One unit of work: a set of miss indices executed together on one
 * worker.  Units are derived deterministically from the spec list and
 * the hit/miss split, execute serially inside themselves, and write
 * only their own result slots — so `--jobs=N` stays byte-identical to
 * `--jobs=1` at unit granularity.  Every miss is its own unit except
 * the specs of a one-knob sweep, which share one sweep unit.
 */
struct WorkUnit
{
    /** The swept knob of a sweep unit; empty for a single spec. */
    std::optional<SweepKnob> knob;
    std::vector<size_t> indices; ///< ascending spec indices
};

/**
 * Sweep-group key: the canonical form with the swept knob's value
 * masked out.  Specs mapping to the same key differ in at most that
 * one config knob, so a run that never reads it serves them all (see
 * SweepKnob).  Returns false for specs that are not one-knob sweeps.
 */
bool
sweepGroupKey(const RunSpec &spec, SweepKnob &knob_out, std::string &key_out)
{
    const SpecOverrides &o = spec.overrides;
    int set_knobs = (o.steal_attempt_cycles ? 1 : 0) +
                    (o.mug_interrupt_cycles ? 1 : 0) +
                    (o.regulator_ns_per_step ? 1 : 0);
    if (set_knobs != 1 || spec.serve)
        return false;
    RunSpec masked = spec;
    const char *name = nullptr;
    if (o.steal_attempt_cycles) {
        knob_out = SweepKnob::steal_attempt_cycles;
        masked.overrides.steal_attempt_cycles.reset();
        name = "steal_attempt_cycles";
    } else if (o.mug_interrupt_cycles) {
        knob_out = SweepKnob::mug_interrupt_cycles;
        masked.overrides.mug_interrupt_cycles.reset();
        name = "mug_interrupt_cycles";
    } else {
        knob_out = SweepKnob::regulator_ns_per_step;
        masked.overrides.regulator_ns_per_step.reset();
        name = "regulator_ns_per_step";
    }
    key_out = canonicalSpec(masked);
    key_out += ";sweep=";
    key_out += name;
    return true;
}

/**
 * Partition the miss indices into work units: one-knob sweeps of two
 * or more specs (by masked canonical form) become sweep units, listed
 * first so the longest units start first; every other miss, including
 * serving specs, is a single-spec unit.  A pure function of the spec
 * list and the miss set.
 */
std::vector<WorkUnit>
planUnits(const std::vector<RunSpec> &specs,
          const std::vector<size_t> &miss, bool batching)
{
    std::vector<WorkUnit> sweeps;
    std::vector<WorkUnit> singles;
    std::map<std::string, size_t> sweep_of; // masked key -> sweeps index
    for (size_t i : miss) {
        SweepKnob knob = SweepKnob::steal_attempt_cycles;
        std::string key;
        if (batching && sweepGroupKey(specs[i], knob, key)) {
            auto [it, inserted] = sweep_of.try_emplace(key, sweeps.size());
            if (inserted)
                sweeps.push_back({knob, {}});
            sweeps[it->second].indices.push_back(i);
        } else {
            singles.push_back({std::nullopt, {i}});
        }
    }
    // A one-spec sweep has nothing to share: it runs as a single.
    for (WorkUnit &unit : sweeps)
        if (unit.indices.size() < 2)
            unit.knob.reset();
    sweeps.insert(sweeps.end(), singles.begin(), singles.end());
    return sweeps;
}

/** One-line machine-readable perf record (see EXPERIMENTS.md schema). */
void
writeBenchJson(const std::string &path, const std::string &bench_name,
               const std::string &topology_tag, const BatchStats &stats)
{
    double elapsed = stats.elapsed_seconds > 0.0 ? stats.elapsed_seconds
                                                 : 1e-9;
    std::string out = "{\"schema\":\"aaws-bench-sim/v1\",\"bench\":";
    out += json::encodeString(bench_name);
    if (!topology_tag.empty())
        out += ",\"topology\":" + json::encodeString(topology_tag);
    out += strfmt(",\"runs\":%llu,\"hits\":%llu,\"misses\":%llu,"
                  "\"jobs\":%d",
                  static_cast<unsigned long long>(stats.hits +
                                                  stats.misses),
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.misses),
                  stats.jobs);
    out += ",\"elapsed_seconds\":" +
           json::encodeDouble(stats.elapsed_seconds);
    out += strfmt(",\"sim_events\":%llu",
                  static_cast<unsigned long long>(stats.sim_events));
    out += strfmt(",\"units\":%llu,\"fork_runs\":%llu,"
                  "\"cloned_results\":%llu,\"service_runs\":%llu",
                  static_cast<unsigned long long>(stats.units),
                  static_cast<unsigned long long>(stats.fork_runs),
                  static_cast<unsigned long long>(stats.cloned_results),
                  static_cast<unsigned long long>(stats.service_runs));
    out += ",\"sims_per_second\":" +
           json::encodeDouble(static_cast<double>(stats.misses) / elapsed);
    out += ",\"events_per_second\":" +
           json::encodeDouble(static_cast<double>(stats.sim_events) /
                              elapsed);
    out += "}\n";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write bench perf record '%s'", path.c_str());
        return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
}

} // namespace

std::vector<RunResult>
runBatch(const std::vector<RunSpec> &specs, const EngineOptions &options,
         BatchStats *stats_out)
{
    ResultCache cache(options.use_cache, options.cache_dir);
    std::vector<RunResult> results(specs.size());
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> sim_events{0};
    std::atomic<uint64_t> cloned_results{0};
    ProgressReporter progress(options.progress, specs.size());
    KernelPool kernels(specs);
    ServiceTables tables(specs, kernels);

    // Pass 1 (serial): resolve cache hits and collect the miss set.
    // Grouping needs the full hit/miss split up front, and the lookups
    // are file reads — not worth fanning out.
    uint64_t hits = 0;
    std::vector<size_t> miss;
    miss.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        if (cache.lookup(specs[i], results[i])) {
            hits++;
            progress.onRunDone(true);
        } else {
            miss.push_back(i);
        }
    }

    // Pass 2: plan work units (sweeps, then single specs).
    std::vector<WorkUnit> units =
        planUnits(specs, miss, options.batching);

    int jobs = resolveJobs(options.jobs, units.size());
    if (options.progress)
        std::fprintf(stderr,
                     "[aaws-exp] running %zu specs (%zu cached, %zu to "
                     "simulate in %zu units) on %d jobs\n",
                     specs.size(), static_cast<size_t>(hits), miss.size(),
                     units.size(), jobs);

    // Record one executed (non-cached, non-cloned) result.
    auto record = [&](size_t i, RunResult result) {
        misses.fetch_add(1, std::memory_order_relaxed);
        sim_events.fetch_add(result.sim.sim_events,
                             std::memory_order_relaxed);
        cache.store(specs[i], result);
        results[i] = std::move(result);
        progress.onRunDone(false);
    };

    // Clone path: the swept knob was never read during the reference
    // run, so the reference history *is* this spec's history.
    auto recordClone = [&](size_t i, const SimResult &reference) {
        RunResult result = labelledResult(specs[i], reference);
        misses.fetch_add(1, std::memory_order_relaxed);
        cloned_results.fetch_add(1, std::memory_order_relaxed);
        cache.store(specs[i], result);
        results[i] = std::move(result);
        progress.onRunDone(false);
    };

    // A sweep unit runs its first spec as the reference.  The other
    // values are clones when that run never read the swept knob, and
    // plain runs, one after another, when it did.
    auto runSweep = [&](const WorkUnit &unit) {
        const RunSpec &ref_spec = specs[unit.indices[0]];
        const Kernel &kernel = kernels.get(ref_spec.kernel, ref_spec.seed);
        Machine reference(configForSpec(kernel, ref_spec), kernel.dag);
        RunResult ref_result = labelledResult(ref_spec, reference.run());
        const bool knob_read = reference.knobRead(*unit.knob);
        for (size_t k = 1; k < unit.indices.size(); ++k) {
            const size_t i = unit.indices[k];
            if (knob_read)
                record(i, executeSpec(specs[i], kernel));
            else
                recordClone(i, ref_result.sim);
        }
        record(unit.indices[0], std::move(ref_result));
    };

    auto runUnit = [&](const WorkUnit &unit) {
        if (unit.knob) {
            runSweep(unit);
            return;
        }
        const RunSpec &spec = specs[unit.indices[0]];
        if (spec.serve)
            record(unit.indices[0], executeServing(spec, tables.get(spec)));
        else
            record(unit.indices[0],
                   executeSpec(spec, kernels.get(spec.kernel, spec.seed)));
    };

    if (jobs <= 1 || units.size() <= 1) {
        for (const WorkUnit &unit : units)
            runUnit(unit);
    } else {
        // Dogfood the native runtime: one work unit per stealable
        // task; the master participates through the blocking join.
        WorkerPool pool(jobs);
        TaskGroup group(pool);
        for (const WorkUnit &unit : units)
            group.run([&runUnit, &unit] { runUnit(unit); });
        group.wait();
    }

    BatchStats stats;
    stats.hits = hits;
    stats.misses = misses.load(std::memory_order_relaxed);
    stats.jobs = jobs;
    stats.elapsed_seconds = secondsSince(progress.start());
    stats.sim_events = sim_events.load(std::memory_order_relaxed);
    stats.units = units.size();
    stats.cloned_results = cloned_results.load(std::memory_order_relaxed);
    stats.service_runs = tables.runs();
    progress.summary(stats);
    if (options.time_report) {
        double elapsed =
            stats.elapsed_seconds > 0.0 ? stats.elapsed_seconds : 1e-9;
        std::fprintf(stderr,
                     "[aaws-exp] time: %.3fs wall, %.1f sims/s, "
                     "%.3fM events/s (%llu events over %llu executed "
                     "sims)\n",
                     stats.elapsed_seconds,
                     static_cast<double>(stats.misses) / elapsed,
                     static_cast<double>(stats.sim_events) / elapsed / 1e6,
                     static_cast<unsigned long long>(stats.sim_events),
                     static_cast<unsigned long long>(stats.misses));
    }
    if (!options.bench_json.empty())
        writeBenchJson(options.bench_json,
                       options.bench_name.empty() ? "batch"
                                                  : options.bench_name,
                       options.topology_tag, stats);
    if (stats_out)
        *stats_out = stats;
    return results;
}

} // namespace exp
} // namespace aaws
