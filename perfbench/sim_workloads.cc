/**
 * @file
 * sim_sweeps: the simulator sweep engine, driven through exp::runBatch
 * at jobs = hostThreads() with a fresh, empty result cache per pass.
 *
 *  - step 1: one cold batch of the Fig. 8 sweep shape (22 kernels x
 *    {1b7l, 4b4l} x 5 variants) plus the sens_mug / sens_steal /
 *    sens_dvfs rows (base+psm, 4b4l, 22 kernels x 4 knob values, at
 *    three seeds): lane units, snapshot-fork and clone units, and
 *    plain runs fanned out on the engine's WorkerPool;
 *  - step 2: the simulator serving sweep of serve_tail_latency (dict,
 *    Poisson and MMPP, 30-90% utilization, all 5 variants).
 *
 * Every pass simulates fresh seeds derived from the workload seed.  A
 * seeded sample of the first pass's specs is re-run through plain
 * serial exp::executeSpec and byte-compared (results serialized with
 * the cost-only `sim_events` zeroed); each mismatch is a failed
 * operation.
 */

#include <unistd.h>

#include <filesystem>
#include <map>
#include <set>

#include "bench.h"
#include "common/rng.h"
#include "exp/cache.h"
#include "exp/engine.h"
#include "exp/run_spec.h"
#include "kernels/registry.h"
#include "serve/sim_server.h"
#include "sim/machine.h"

namespace perfbench {

using namespace aaws;

namespace {

constexpr uint64_t kSensSeeds = 3;
constexpr size_t kSampleChecks = 12;
constexpr const char *kServeKernel = "dict";
constexpr uint64_t kServeRequests = 200000;
constexpr int kServeUtils[] = {30, 50, 70, 90};

/** A closed-loop spec on a topology preset (never a SystemShape). */
exp::RunSpec
closedSpec(const std::string &kernel, const char *topology, Variant variant,
           uint64_t seed)
{
    exp::RunSpec spec;
    spec.kernel = kernel;
    spec.variant = variant;
    spec.seed = seed;
    spec.overrides.topology = topology;
    return spec;
}

std::vector<exp::RunSpec>
fig08Specs(const std::vector<std::string> &kernels,
           const std::vector<uint64_t> &seeds)
{
    std::vector<exp::RunSpec> specs;
    for (uint64_t seed : seeds)
        for (const char *topology : {"1b7l", "4b4l"})
            for (const std::string &kernel : kernels)
                for (Variant v : allVariants())
                    specs.push_back(closedSpec(kernel, topology, v, seed));
    return specs;
}

/** The sens_mug / sens_steal / sens_dvfs spec rows. */
std::vector<exp::RunSpec>
sensSpecs(const std::vector<std::string> &kernels,
          const std::vector<uint64_t> &seeds)
{
    std::vector<exp::RunSpec> specs;
    auto row = [&](auto apply, const auto &values) {
        for (uint64_t seed : seeds)
            for (const std::string &kernel : kernels)
                for (auto value : values) {
                    exp::RunSpec spec =
                        closedSpec(kernel, "4b4l", Variant::base_psm, seed);
                    apply(spec.overrides, value);
                    specs.push_back(spec);
                }
    };
    row([](exp::SpecOverrides &o, uint64_t c) { o.mug_interrupt_cycles = c; },
        std::vector<uint64_t>{20, 100, 400, 1000});
    row([](exp::SpecOverrides &o, uint64_t c) { o.steal_attempt_cycles = c; },
        std::vector<uint64_t>{10, 30, 60, 120});
    row([](exp::SpecOverrides &o, double ns) { o.regulator_ns_per_step = ns; },
        std::vector<double>{40.0, 100.0, 175.0, 250.0});
    return specs;
}

/**
 * The serving path reads RunSpec::system, not a topology preset, so
 * serving specs keep the engine's default machine shape.
 */
exp::RunSpec
servingSpec(Variant variant, uint64_t seed)
{
    exp::RunSpec spec;
    spec.kernel = kServeKernel;
    spec.variant = variant;
    spec.seed = seed;
    return spec;
}

/** serve_tail_latency's sweep point (kind, utilization). */
serve::ServeSpec
servePoint(serve::ArrivalKind kind, int util_pct, uint64_t requests,
           double base_service_s)
{
    serve::ServeSpec spec;
    spec.arrival.kind = kind;
    spec.tenants = 2;
    spec.arrival.rate_hz = (util_pct / 100.0) / base_service_s / spec.tenants;
    spec.arrival.burst_factor = 4.0;
    spec.arrival.mean_burst_s = 50.0 * base_service_s;
    spec.arrival.mean_idle_s = 200.0 * base_service_s;
    spec.requests = requests;
    spec.queue_cap = 64;
    spec.deadline_s = 20.0 * base_service_s;
    spec.service_samples = 3;
    return spec;
}

/**
 * The base variant's mean sampled service time at `seed`: the anchor
 * that turns a utilization into an arrival rate (serve_tail_latency's
 * anchoring), so every variant faces the same offered load.
 */
double
serviceAnchor(uint64_t seed)
{
    exp::RunSpec anchor = servingSpec(Variant::base, seed);
    return serve::meanServiceSeconds(serve::sampleServiceTable(
        anchor.kernel, anchor.system, anchor.variant, seed, 3));
}

/** The serving sweep at `seed` around a service-time anchor. */
std::vector<exp::RunSpec>
serveSpecs(uint64_t seed, double base_s, const std::vector<int> &utils,
           const std::vector<serve::ArrivalKind> &kinds, uint64_t requests)
{
    std::vector<exp::RunSpec> specs;
    for (serve::ArrivalKind kind : kinds)
        for (int util : utils)
            for (Variant v : allVariants()) {
                exp::RunSpec spec = servingSpec(v, seed);
                spec.serve = servePoint(kind, util, requests, base_s);
                specs.push_back(spec);
            }
    return specs;
}

/** A result's bytes for comparison: everything but `sim_events`. */
std::string
resultKey(RunResult result)
{
    result.sim.sim_events = 0;
    return exp::runResultToJson(result);
}

std::vector<std::string>
resultKeys(const std::vector<RunResult> &results)
{
    std::vector<std::string> keys;
    keys.reserve(results.size());
    for (const RunResult &r : results)
        keys.push_back(resultKey(r));
    return keys;
}

/** FNV-1a over result keys, truncated to 52 bits (exact as a double). */
double
digest(const std::vector<std::string> &keys)
{
    uint64_t hash = 14695981039346656037ull;
    for (const std::string &key : keys)
        for (char c : key) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 1099511628211ull;
        }
    return static_cast<double>(hash & ((1ull << 52) - 1));
}

/** A fresh result-cache directory, removed again on destruction. */
class CacheDir
{
  public:
    explicit CacheDir(const Options &opts)
    {
        static int counter = 0;
        path_ = opts.work_dir + "/cache-" + std::to_string(::getpid()) +
                "-" + std::to_string(counter++);
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~CacheDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    CacheDir(const CacheDir &) = delete;
    CacheDir &operator=(const CacheDir &) = delete;

    const std::string &path() const { return path_; }

    double
    bytes() const
    {
        double total = 0.0;
        for (const auto &entry : std::filesystem::directory_iterator(path_))
            if (entry.is_regular_file())
                total += static_cast<double>(entry.file_size());
        return total;
    }

  private:
    std::string path_;
};

exp::EngineOptions
engineOptions(int jobs, const CacheDir &dir)
{
    exp::EngineOptions options;
    options.jobs = jobs;
    options.use_cache = true;
    options.cache_dir = dir.path();
    options.progress = false; // no engine output inside timed regions
    return options;
}

/**
 * Build the process-wide DVFS tables before timing: construct (never
 * run) one Machine per distinct machine configuration of the specs.
 */
void
warmTables(const std::vector<exp::RunSpec> &specs)
{
    Kernel kernel = makeKernel(kServeKernel, specs.front().seed);
    std::set<std::string> seen;
    for (const exp::RunSpec &spec : specs) {
        if (spec.serve)
            continue;
        std::string key = spec.overrides.topology.value_or("") + "/" +
                          variantName(spec.variant);
        if (seen.insert(key).second)
            Machine machine(exp::configForSpec(kernel, spec), kernel.dag);
    }
}

/**
 * Re-run a seeded sample of specs through plain serial executeSpec and
 * byte-compare with the engine's results.  `corrupt` perturbs the
 * engine's first sampled result first (the checker's own test).
 */
void
checkSample(const std::vector<exp::RunSpec> &specs,
            const std::vector<RunResult> &engine, uint64_t seed,
            bool corrupt, Record &record)
{
    Rng rng(subSeed(seed, 0xC4EC));
    for (size_t k = 0; k < kSampleChecks && !specs.empty(); ++k) {
        size_t i = static_cast<size_t>(rng.next() % specs.size());
        RunResult mine = engine[i];
        if (corrupt && k == 0)
            mine.sim.exec_seconds *= 1.0 + 1e-12;
        RunResult plain = exp::executeSpec(specs[i]);
        record.attempted++;
        record.failed += resultKey(plain) != resultKey(mine);
    }
}

/**
 * Passes of `pass(index)` until the next one would overrun `seconds`;
 * returns how many ran.
 */
template <typename Pass>
int
runPasses(double seconds, Pass &&pass)
{
    Clock::time_point start = Clock::now();
    int passes = 0;
    double last = 0.0;
    while (passes == 0 || secondsSince(start) + last <= seconds) {
        Clock::time_point t = Clock::now();
        pass(passes);
        last = secondsSince(t);
        passes++;
    }
    return passes;
}

/** Time a runBatch call; returns its results. */
std::vector<RunResult>
timedBatch(const std::vector<exp::RunSpec> &specs,
           const exp::EngineOptions &options, std::vector<double> &samples,
           exp::BatchStats *stats = nullptr)
{
    Clock::time_point start = Clock::now();
    std::vector<RunResult> results = exp::runBatch(specs, options, stats);
    samples.push_back(secondsSince(start));
    return results;
}

/**
 * The seed of pass `pass`: every pass simulates fresh seeds, so a run's
 * median spans many inputs.  Pass 0 is the batch the traced run replays.
 */
uint64_t
passSeed(uint64_t seed, int pass)
{
    return subSeed(seed, 0x5EED + static_cast<uint64_t>(pass));
}

/** Set-up: the serving anchor and the DVFS tables of both steps. */
struct SweepsSetup
{
    double anchor;
    std::vector<exp::RunSpec> first_sweep;
    std::vector<exp::RunSpec> first_serving;

    explicit SweepsSetup(const Options &opts)
        : anchor(serviceAnchor(opts.seed)),
          first_sweep(sweep(passSeed(opts.seed, 0))),
          first_serving(serving(passSeed(opts.seed, 0)))
    {
        warmTables(first_sweep);
        warmTables(first_serving);
    }

    /**
     * Step 1's batch at `seed`: the Fig. 8 shape, then the sens rows at
     * kSensSeeds seeds derived from it.  Spread over several seeds, the
     * batch is long enough that no single work unit (ksack's, whose
     * size varies tenfold between seeds) sets its time.
     */
    std::vector<exp::RunSpec>
    sweep(uint64_t seed) const
    {
        std::vector<exp::RunSpec> specs = fig08Specs(kernelNames(), {seed});
        std::vector<uint64_t> seeds;
        for (uint64_t k = 0; k < kSensSeeds; ++k)
            seeds.push_back(subSeed(seed, k));
        for (exp::RunSpec &spec : sensSpecs(kernelNames(), seeds))
            specs.push_back(std::move(spec));
        return specs;
    }

    std::vector<exp::RunSpec>
    serving(uint64_t seed) const
    {
        return serveSpecs(seed, anchor,
                          {std::begin(kServeUtils), std::end(kServeUtils)},
                          {serve::ArrivalKind::poisson,
                           serve::ArrivalKind::mmpp},
                          kServeRequests);
    }
};

} // namespace

double
setupSimSweeps(const Options &opts)
{
    Clock::time_point start = Clock::now();
    SweepsSetup setup(opts);
    return secondsSince(start);
}

Record
runSimSweeps(const Options &opts)
{
    Record record;
    Clock::time_point setup_start = Clock::now();
    SweepsSetup setup(opts);
    const double setup_s = secondsSince(setup_start);
    const int jobs = hostThreads();

    std::vector<double> sweep_s;
    std::vector<double> serve_s;
    std::vector<double> rss_mb;
    std::vector<RunResult> first_sweep;
    std::vector<RunResult> first_serve;
    uint64_t fork_runs = 0;
    uint64_t cloned = 0;
    int passes = runPasses(opts.seconds, [&](int pass) {
        const uint64_t seed = passSeed(opts.seed, pass);
        const std::vector<exp::RunSpec> sweep_specs =
            pass == 0 ? setup.first_sweep : setup.sweep(seed);
        const std::vector<exp::RunSpec> serve_specs =
            pass == 0 ? setup.first_serving : setup.serving(seed);
        resetPeakRss();
        CacheDir dir(opts);
        exp::EngineOptions options = engineOptions(jobs, dir);
        exp::BatchStats stats;
        std::vector<RunResult> sweep =
            timedBatch(sweep_specs, options, sweep_s, &stats);
        std::vector<RunResult> serving =
            timedBatch(serve_specs, options, serve_s);
        rss_mb.push_back(peakRssMb());
        fork_runs += stats.fork_runs;
        cloned += stats.cloned_results;
        record.attempted += sweep.size() + serving.size();
        if (pass == 0) {
            first_sweep = std::move(sweep);
            first_serve = std::move(serving);
        }
    });
    checkSample(setup.first_sweep, first_sweep, opts.seed,
                opts.corrupt == "sim", record);
    checkSample(setup.first_serving, first_serve, subSeed(opts.seed, 1),
                false, record);

    double first_events = 0.0;
    for (const RunResult &r : first_sweep)
        first_events += static_cast<double>(r.sim.sim_events);
    Summary sweep = summarize(sweep_s);
    Summary serving = summarize(serve_s);
    record.noteSummary("sweep_cold_s", sweep);
    record.noteSummary("serve_sweep_s", serving);
    record.note("specs_per_pass", static_cast<double>(setup.first_sweep.size()));
    record.note("serve_specs_per_pass",
                static_cast<double>(setup.first_serving.size()));
    record.note("passes", passes);
    record.note("jobs", jobs);
    record.note("sim_events_first_pass", first_events);
    record.note("results_digest", digest(resultKeys(first_sweep)));
    record.note("fork_runs_per_pass", static_cast<double>(fork_runs) / passes);
    record.note("cloned_results_per_pass",
                static_cast<double>(cloned) / passes);
    record.metric("setup_s", setup_s, "s");
    record.metric("step1_ms", sweep.median * 1e3, "ms");
    record.metric("step2_ms", serving.median * 1e3, "ms");
    record.metric("peak_rss_mb", summarize(rss_mb).median, "MB");
    return record;
}

// --- per-layer (traced) ----------------------------------------------------

namespace {

/**
 * The traced closed-loop pass: plain serial makeKernel + executeSpec
 * per spec, each call inside a span, every result compared with the
 * untraced engine's; then each result stored into and looked up from
 * a fresh ResultCache.  Returns the pass's traced seconds and, in
 * `keys`, the traced results' comparison bytes.
 */
double
traceClosed(const Options &opts, const std::vector<exp::RunSpec> &specs,
            const std::vector<RunResult> &untraced, Layers &layers,
            Record &record, std::vector<std::string> &keys)
{
    const double before = layers.seconds("kernels.gen") +
                          layers.seconds("sim.run") +
                          layers.seconds("exp.store") +
                          layers.seconds("exp.lookup");
    std::map<std::pair<std::string, uint64_t>, Kernel> kernels;
    std::vector<RunResult> results;
    results.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        const exp::RunSpec &spec = specs[i];
        auto key = std::make_pair(spec.kernel, spec.seed);
        auto it = kernels.find(key);
        if (it == kernels.end()) {
            it = kernels
                     .emplace(key, timed(layers, "kernels.gen", [&] {
                                  return makeKernel(spec.kernel, spec.seed);
                              }))
                     .first;
            layers.counts["kernels.tasks"] +=
                static_cast<double>(it->second.dag.numTasks());
        }
        RunResult result = timed(layers, "sim.run", [&] {
            return exp::executeSpec(spec, it->second);
        });
        layers.counts["sim.events"] += static_cast<double>(result.sim.sim_events);
        layers.counts["sched.steals"] += static_cast<double>(result.sim.steals);
        layers.counts["sched.failed_steals"] +=
            static_cast<double>(result.sim.failed_steals);
        keys.push_back(resultKey(result));
        record.attempted++;
        record.failed += keys.back() != resultKey(untraced[i]);
        results.push_back(std::move(result));
    }

    CacheDir dir(opts);
    exp::ResultCache cache(true, dir.path());
    for (size_t i = 0; i < specs.size(); ++i)
        record.failed += !timed(layers, "exp.store", [&] {
            return cache.store(specs[i], results[i]);
        });
    layers.counts["exp.cache_bytes"] += dir.bytes();
    for (size_t i = 0; i < specs.size(); ++i) {
        RunResult out;
        bool hit = timed(layers, "exp.lookup",
                         [&] { return cache.lookup(specs[i], out); });
        record.attempted++;
        record.failed += !hit || resultKey(out) != resultKey(results[i]);
    }
    return layers.seconds("kernels.gen") + layers.seconds("sim.run") +
           layers.seconds("exp.store") + layers.seconds("exp.lookup") -
           before;
}

/**
 * The traced serving pass: sampleServiceTable then simulateService per
 * spec (exactly what executeSpec composes), compared with the untraced
 * engine's results.  Returns the pass's traced seconds.
 */
double
traceServing(const std::vector<exp::RunSpec> &specs,
             const std::vector<RunResult> &untraced, Layers &layers,
             Record &record)
{
    const double before =
        layers.seconds("serve.table") + layers.seconds("serve.queue");
    for (size_t i = 0; i < specs.size(); ++i) {
        const exp::RunSpec &spec = specs[i];
        auto table = timed(layers, "serve.table", [&] {
            return serve::sampleServiceTable(spec.kernel, spec.system,
                                             spec.variant, spec.seed,
                                             spec.serve->service_samples);
        });
        RunResult result;
        result.kernel = spec.kernel;
        result.system = spec.system;
        result.variant = spec.variant;
        result.sim = timed(layers, "serve.queue", [&] {
            return serve::simulateService(table, spec.seed, *spec.serve);
        });
        layers.counts["serve.requests"] +=
            static_cast<double>(spec.serve->requests);
        record.attempted++;
        record.failed += resultKey(result) != resultKey(untraced[i]);
    }
    return layers.seconds("serve.table") + layers.seconds("serve.queue") -
           before;
}

/** Untraced reference batch: results, wall seconds and BatchStats. */
std::vector<RunResult>
untracedBatch(const Options &opts, const std::vector<exp::RunSpec> &specs,
              int jobs, double &seconds, exp::BatchStats &stats)
{
    CacheDir dir(opts);
    std::vector<double> samples;
    std::vector<RunResult> results =
        timedBatch(specs, engineOptions(jobs, dir), samples, &stats);
    seconds = samples.front();
    return results;
}

void
noteBatch(Layers &layers, const exp::BatchStats &stats, double serial_s,
          double untraced_s)
{
    layers.counts["exp.fork_runs"] += static_cast<double>(stats.fork_runs);
    layers.counts["exp.cloned_results"] +=
        static_cast<double>(stats.cloned_results);
    layers.counts["exp.speedup_vs_serial"] = serial_s / untraced_s;
}

/** Both native backends' layer metrics, from their short probes. */
void
emitNativeProbes(const Options &opts, Record &record)
{
    Layers deque_layers;
    Layers chan_layers;
    probeNativeLayers(opts, false, 0.5, deque_layers, record);
    probeNativeLayers(opts, true, 0.5, chan_layers, record);
    emitNativeLayers(deque_layers, chan_layers, record);
}

} // namespace

void
probeSimLayers(const Options &opts, Layers &layers, Record &record)
{
    // One kernel's Fig. 8 column plus its sens_mug row (a fork unit).
    std::vector<exp::RunSpec> specs =
        fig08Specs({kServeKernel}, {subSeed(opts.seed, 0x9B0)});
    for (uint64_t c : {20, 100, 400, 1000}) {
        exp::RunSpec spec = closedSpec(kServeKernel, "4b4l",
                                       Variant::base_psm, specs[0].seed);
        spec.overrides.mug_interrupt_cycles = c;
        specs.push_back(spec);
    }
    warmTables(specs);
    double untraced_s = 0.0;
    exp::BatchStats stats;
    std::vector<RunResult> reference =
        untracedBatch(opts, specs, 1, untraced_s, stats);
    std::vector<std::string> keys;
    traceClosed(opts, specs, reference, layers, record, keys);
    noteBatch(layers, stats,
              layers.seconds("kernels.gen") + layers.seconds("sim.run"),
              untraced_s);
}

void
probeServeLayers(const Options &opts, Layers &layers, Record &record)
{
    const uint64_t seed = subSeed(opts.seed, 0x5E7E);
    std::vector<exp::RunSpec> specs =
        serveSpecs(seed, serviceAnchor(seed), {50},
                   {serve::ArrivalKind::poisson}, 20000);
    double untraced_s = 0.0;
    exp::BatchStats stats;
    std::vector<RunResult> reference =
        untracedBatch(opts, specs, 1, untraced_s, stats);
    traceServing(specs, reference, layers, record);
}

void
emitSimLayers(const Layers &l, Record &record)
{
    const double gen_s = l.seconds("kernels.gen");
    const double run_s = l.seconds("sim.run");
    const double events = l.count("sim.events");
    const double steals = l.count("sched.steals");
    const double failed = l.count("sched.failed_steals");
    record.metric("kernels.gen_s", gen_s, "s");
    record.metric("kernels.tasks", l.count("kernels.tasks"), "count");
    record.metric("sim.run_s", run_s, "s");
    record.metric("sim.events", events, "count");
    record.metric("sim.ns_per_event", events > 0 ? run_s * 1e9 / events : 0.0,
                  "ns");
    record.metric("sched.failed_steal_share",
                  steals + failed > 0 ? failed / (steals + failed) : 0.0,
                  "ratio");
    record.metric("exp.store_s", l.seconds("exp.store"), "s");
    record.metric("exp.cache_bytes", l.count("exp.cache_bytes"), "bytes");
    record.metric("exp.lookup_s", l.seconds("exp.lookup"), "s");
    record.metric("exp.speedup_vs_serial", l.count("exp.speedup_vs_serial"),
                  "ratio");
    record.metric("exp.fork_runs", l.count("exp.fork_runs"), "count");
    record.metric("exp.cloned_results", l.count("exp.cloned_results"),
                  "count");
}

void
emitServeLayers(const Layers &l, Record &record)
{
    const double queue_s = l.seconds("serve.queue");
    record.metric("serve.table_s", l.seconds("serve.table"), "s");
    record.metric("serve.queue_s", queue_s, "s");
    record.metric("serve.requests_per_s",
                  queue_s > 0 ? l.count("serve.requests") / queue_s : 0.0,
                  "1/s");
}

Record
traceSimSweeps(const Options &opts)
{
    Record record;
    SweepsSetup setup(opts);
    Layers layers;
    const int jobs = hostThreads();

    // Untraced reference: the first pass's two batches on the engine.
    double sweep_s = 0.0;
    double serve_s = 0.0;
    exp::BatchStats stats;
    exp::BatchStats serve_stats;
    std::vector<RunResult> sweep =
        untracedBatch(opts, setup.first_sweep, jobs, sweep_s, stats);
    std::vector<RunResult> serving =
        untracedBatch(opts, setup.first_serving, jobs, serve_s, serve_stats);
    const double untraced_s = sweep_s + serve_s;

    std::vector<std::string> keys;
    double traced_s =
        traceClosed(opts, setup.first_sweep, sweep, layers, record, keys);
    record.note("results_digest", digest(keys));
    traced_s += traceServing(setup.first_serving, serving, layers, record);
    noteBatch(layers, stats,
              layers.seconds("kernels.gen") + layers.seconds("sim.run") +
                  layers.seconds("serve.table") +
                  layers.seconds("serve.queue"),
              untraced_s);

    emitSimLayers(layers, record);
    emitServeLayers(layers, record);
    emitNativeProbes(opts, record);
    record.metric("bench.untraced_s", untraced_s, "s");
    record.metric("bench.traced_s", traced_s, "s");
    record.note("trace_overhead_s", traced_s - untraced_s);
    return record;
}

} // namespace perfbench
