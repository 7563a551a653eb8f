/**
 * @file
 * Shared pieces of the repository benchmark program: run options, the
 * sample statistics every timing is reported with, the metric record
 * the benchmark binary prints, and per-layer span accumulators.
 *
 * The benchmark binary calls the AAWS layers' public APIs directly (never the
 * bench/ binaries) and times every call from the outside; see
 * perfbench/README.md for the workloads and the metric table.
 */

#ifndef AAWS_PERFBENCH_BENCH_H
#define AAWS_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark binary invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for result caches (created and removed). */
    std::string work_dir = ".bench_build/perfbench-work";
    /** Run only the workload's set-up and report its duration. */
    bool setup_only = false;
    /**
     * Deliberately corrupt one checked output ("sim" or "radix") so
     * the benchmark's tests can prove the check counts it as failed.
     */
    std::string corrupt;
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median, quartiles and a tail percentile of repeated timings. */
struct Summary
{
    size_t count = 0;
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    /** Highest percentile with at least ten samples beyond it (0: none). */
    int tail_pct = 0;
    double tail = 0.0;
};

Summary summarize(std::vector<double> samples);

/** Every sample times `factor` (unit conversion). */
inline std::vector<double>
scaled(std::vector<double> samples, double factor)
{
    for (double &s : samples)
        s *= factor;
    return samples;
}

/** Workers to run with: the CPUs this process may run on. */
int hostThreads();

/** Peak resident set size since start or the last resetPeakRss(), MiB. */
double peakRssMb();

/**
 * Return freed heap to the system and restart the peak-RSS mark from
 * the current resident set (best effort: a kernel that refuses leaves
 * the process-wide peak).
 */
void resetPeakRss();

/** Splitmix64 step: independent sub-seeds of the workload seed. */
uint64_t subSeed(uint64_t seed, uint64_t salt);

/**
 * What one run produced: end-to-end or per-layer metrics, operation
 * counts, and informational lines printed ahead of the result.
 */
struct Record
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Ordered (name -> (value, unit)) for the final result line. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    /** Named extras (named steps, percentiles, counts) for info. */
    std::vector<std::pair<std::string, double>> info;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    void note(const std::string &name, double value)
    {
        info.push_back({name, value});
    }

    /** A timing summary as info entries: median, quartiles, tail, n. */
    void noteSummary(const std::string &name, const Summary &s);
};

/**
 * Per-layer totals of one traced run: seconds spent inside calls into
 * a layer's public API (spans measured around each call from the
 * benchmark's side) and counts read from what the calls returned.
 */
struct Layers
{
    std::map<std::string, double> spans;
    std::map<std::string, double> counts;

    void add(const std::string &name, double seconds) { spans[name] += seconds; }

    double seconds(const std::string &name) const;
    double count(const std::string &name) const;
};

/** Time `fn()`, add the duration to `layers` under `name`, return. */
template <typename F>
auto
timed(Layers &layers, const char *name, F &&fn)
{
    Clock::time_point start = Clock::now();
    auto value = fn();
    layers.add(name, secondsSince(start));
    return value;
}

// --- workloads -----------------------------------------------------------

/** Set-up only: returns seconds from entry to ready-to-time. */
double setupSimSweeps(const Options &opts);
double setupNative(const Options &opts, bool chan_backend);

/** Untraced run: fills the end-to-end metrics. */
Record runSimSweeps(const Options &opts);
Record runNative(const Options &opts, bool chan_backend);

/** Traced run: fills the per-layer metrics. */
Record traceSimSweeps(const Options &opts);
Record traceNative(const Options &opts, bool chan_backend);

// --- layer probes shared by the traced runs ------------------------------

/**
 * Per-layer metrics of the simulator-side layers (kernels, sim, sched,
 * exp, serve) and the native layers (runtime, deque, chan).  A traced
 * run fills the groups its workload enters from its own pass and the
 * others from a small fixed probe of that layer, so every workload
 * prints the same metric set; see README.md.
 */
void emitSimLayers(const Layers &layers, Record &record);
void emitServeLayers(const Layers &layers, Record &record);
/** Also times the single-threaded deque and SPSC channel costs. */
void emitNativeLayers(const Layers &deque_layers,
                      const Layers &chan_layers, Record &record);

/** Probe the simulator layers on a small fixed sweep at `seed`. */
void probeSimLayers(const Options &opts, Layers &layers, Record &record);
/** Probe the serving layer on one small serving spec at `seed`. */
void probeServeLayers(const Options &opts, Layers &layers, Record &record);
/** Native micro-costs and a short fib run on one backend. */
void probeNativeLayers(const Options &opts, bool chan_backend,
                       double fib_seconds, Layers &layers, Record &record);

} // namespace perfbench

#endif // AAWS_PERFBENCH_BENCH_H
