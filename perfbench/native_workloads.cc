/**
 * @file
 * native_deque / native_chan: the native runtime on one backend, with
 * one pool of hostThreads() workers (master included) alive at a time.
 *
 *  - step 1, fib: fib(34) by binary parallelInvoke down to a serial
 *    fib(12) leaf, so spawn, steal and steal-request costs dominate;
 *  - step 2, radix: LSD radix sort of 1.2 M seeded keys in the
 *    shootout's block shape (4 x workers blocks, one parallelFor leaf
 *    per block, four 8-bit digit passes): few long leaves.
 *
 * Warm-up repetitions run in set-up and are never timed.  Each kernel's
 * single-threaded time is measured after the pool is destroyed and is
 * the base of every reported speedup.  Every repetition's output is
 * checked (fib value; radix output sorted with the input's multiset
 * checksum), and a wrong output counts as a failed operation.
 */

#include <algorithm>
#include <memory>
#include <vector>

#include "bench.h"
#include "chan/backend_factory.h"
#include "chan/channel.h"
#include "chan/channel_pool.h"
#include "common/rng.h"
#include "runtime/chase_lev_deque.h"
#include "runtime/parallel_for.h"
#include "runtime/parallel_invoke.h"
#include "runtime/task_group.h"

namespace perfbench {

using namespace aaws;

namespace {

constexpr int kFibN = 34;
constexpr int kFibLeaf = 12;
constexpr uint64_t kFibExpected = 5702887;
constexpr size_t kRadixKeys = 1200000;
constexpr int kFibWarmReps = 20;
constexpr int kRadixWarmReps = 5;
constexpr double kRoundSeconds = 0.5;

uint64_t
fibSerial(int n)
{
    uint64_t a = 0;
    uint64_t b = 1;
    for (int i = 0; i < n; ++i) {
        uint64_t next = a + b;
        a = b;
        b = next;
    }
    return a;
}

/** Serial recursion with the parallel version's leaf, for the base. */
uint64_t
fibTree(int n)
{
    if (n < kFibLeaf)
        return fibSerial(n);
    return fibTree(n - 1) + fibTree(n - 2);
}

uint64_t
fibParallel(RuntimeBackend &pool, int n)
{
    if (n < kFibLeaf)
        return fibSerial(n);
    uint64_t left = 0;
    uint64_t right = 0;
    parallelInvoke(pool, [&] { left = fibParallel(pool, n - 1); },
                   [&] { right = fibParallel(pool, n - 2); });
    return left + right;
}

/** Tasks one fibParallel(n) spawns (one per parallelInvoke). */
uint64_t
fibSpawns(int n)
{
    return n < kFibLeaf ? 0 : 1 + fibSpawns(n - 1) + fibSpawns(n - 2);
}

/** Order-independent checksum of a key multiset. */
uint64_t
multisetChecksum(const std::vector<uint32_t> &keys)
{
    uint64_t sum = 0;
    for (uint32_t k : keys)
        sum += subSeed(k, 0);
    return sum;
}

/**
 * LSD radix sort of `data` (result left in `data`) in `blocks` equal
 * blocks; `pf(lo, hi, body)` runs body over block ranges.
 */
template <typename ParFor>
void
radixSort(std::vector<uint32_t> &data, std::vector<uint32_t> &tmp,
          int blocks, ParFor &&pf)
{
    const int64_t n = static_cast<int64_t>(data.size());
    const int64_t block = (n + blocks - 1) / blocks;
    std::vector<int64_t> hist(static_cast<size_t>(blocks) * 256);
    tmp.resize(data.size());
    for (int shift = 0; shift < 32; shift += 8) {
        pf(0, blocks, [&](int64_t blo, int64_t bhi) {
            for (int64_t b = blo; b < bhi; ++b) {
                int64_t *h = &hist[b * 256];
                std::fill(h, h + 256, 0);
                int64_t hi = std::min(n, (b + 1) * block);
                for (int64_t i = b * block; i < hi; ++i)
                    h[(data[i] >> shift) & 255]++;
            }
        });
        // Serial exclusive prefix in digit-major order.
        int64_t run = 0;
        for (int d = 0; d < 256; ++d)
            for (int b = 0; b < blocks; ++b) {
                int64_t count = hist[b * 256 + d];
                hist[b * 256 + d] = run;
                run += count;
            }
        pf(0, blocks, [&](int64_t blo, int64_t bhi) {
            for (int64_t b = blo; b < bhi; ++b) {
                int64_t *off = &hist[b * 256];
                int64_t hi = std::min(n, (b + 1) * block);
                for (int64_t i = b * block; i < hi; ++i)
                    tmp[off[(data[i] >> shift) & 255]++] = data[i];
            }
        });
        data.swap(tmp);
    }
}

/** The seeded radix input and the checks its outputs must pass. */
struct RadixInput
{
    std::vector<uint32_t> keys;
    uint64_t checksum = 0;

    explicit RadixInput(uint64_t seed) : keys(kRadixKeys)
    {
        Rng rng(subSeed(seed, 0x5AD1));
        for (uint32_t &k : keys)
            k = static_cast<uint32_t>(rng.next());
        checksum = multisetChecksum(keys);
    }

    bool
    valid(const std::vector<uint32_t> &out) const
    {
        return out.size() == keys.size() &&
               std::is_sorted(out.begin(), out.end()) &&
               multisetChecksum(out) == checksum;
    }
};

/** A pool plus the kernels bound to it. */
struct NativeRig
{
    int blocks;
    std::unique_ptr<RuntimeBackend> pool;
    std::vector<uint32_t> data;
    std::vector<uint32_t> tmp;

    NativeRig(BackendKind backend, int workers)
        : blocks(4 * workers),
          pool(chan::makeBackend(backend, workers, PoolOptions{}))
    {
    }

    uint64_t fib() { return fibParallel(*pool, kFibN); }

    /** Sort a fresh copy of the input; returns the sort's seconds. */
    double
    radix(const RadixInput &input)
    {
        data = input.keys;
        Clock::time_point start = Clock::now();
        radixSort(data, tmp, blocks,
                  [this](int64_t lo, int64_t hi, const auto &body) {
                      parallelFor(*pool, lo, hi, 1, body);
                  });
        return secondsSince(start);
    }

    /** Channel-protocol counters (zero on the deque backend). */
    const chan::ChannelPool *
    channelPool() const
    {
        return dynamic_cast<const chan::ChannelPool *>(pool.get());
    }
};

BackendKind
kindOf(bool chan_backend)
{
    return chan_backend ? BackendKind::chan : BackendKind::deque;
}

/** Set-up shared by the untraced run and --setup-only. */
struct NativeSetup
{
    RadixInput input;
    NativeRig rig;
    uint64_t warm_failures = 0;

    NativeSetup(const Options &opts, bool chan_backend)
        : input(opts.seed), rig(kindOf(chan_backend), hostThreads())
    {
        for (int i = 0; i < kFibWarmReps; ++i)
            warm_failures += rig.fib() != kFibExpected;
        for (int i = 0; i < kRadixWarmReps; ++i) {
            rig.radix(input);
            warm_failures += !input.valid(rig.data);
        }
    }
};

/**
 * Append `rep()` samples (seconds each) until `budget` seconds have
 * gone and at least `min_reps` ran.
 */
template <typename Rep>
void
repeatInto(std::vector<double> &samples, double budget, size_t min_reps,
           Rep &&rep)
{
    Clock::time_point start = Clock::now();
    for (size_t n = 0; n < min_reps || secondsSince(start) < budget; ++n)
        samples.push_back(rep());
}

} // namespace

double
setupNative(const Options &opts, bool chan_backend)
{
    Clock::time_point start = Clock::now();
    NativeSetup setup(opts, chan_backend);
    return secondsSince(start);
}

Record
runNative(const Options &opts, bool chan_backend)
{
    Record record;
    Clock::time_point setup_start = Clock::now();
    auto setup = std::make_unique<NativeSetup>(opts, chan_backend);
    double setup_s = secondsSince(setup_start);
    NativeRig &rig = setup->rig;
    const RadixInput &input = setup->input;
    record.attempted += kFibWarmReps + kRadixWarmReps;
    record.failed += setup->warm_failures;

    // Timed repetitions for ~90% of the budget, alternating half-second
    // rounds of fib and radix so both steps see the same host phases.
    auto fibRep = [&] {
        Clock::time_point start = Clock::now();
        uint64_t value = rig.fib();
        double s = secondsSince(start);
        record.attempted++;
        record.failed += value != kFibExpected;
        return s;
    };
    bool corrupt = opts.corrupt == "radix";
    auto radixRep = [&] {
        double s = rig.radix(input);
        if (corrupt) {
            std::swap(rig.data.front(), rig.data.back());
            corrupt = false;
        }
        record.attempted++;
        record.failed += !input.valid(rig.data);
        return s;
    };
    std::vector<double> fib_s;
    std::vector<double> radix_s;
    resetPeakRss();
    Clock::time_point timed_start = Clock::now();
    while (secondsSince(timed_start) < 0.9 * opts.seconds) {
        repeatInto(fib_s, kRoundSeconds, 1, fibRep);
        repeatInto(radix_s, kRoundSeconds, 1, radixRep);
    }
    const double rss_mb = peakRssMb();
    setup.reset(); // one pool alive at a time: none during the base

    // Single-threaded bases, with no pool threads alive.
    std::vector<double> fib_serial_s;
    repeatInto(fib_serial_s, 0.04 * opts.seconds, 3, [&] {
        Clock::time_point start = Clock::now();
        uint64_t value = fibTree(kFibN);
        double s = secondsSince(start);
        record.attempted++;
        record.failed += value != kFibExpected;
        return s;
    });
    RadixInput base_input(opts.seed);
    std::vector<uint32_t> data;
    std::vector<uint32_t> tmp;
    std::vector<double> radix_serial_s;
    repeatInto(radix_serial_s, 0.04 * opts.seconds, 3, [&] {
        data = base_input.keys;
        Clock::time_point start = Clock::now();
        radixSort(data, tmp, 4 * hostThreads(),
                  [](int64_t lo, int64_t hi, const auto &body) {
                      body(lo, hi);
                  });
        double s = secondsSince(start);
        record.attempted++;
        record.failed += !base_input.valid(data);
        return s;
    });

    Summary fib = summarize(fib_s);
    Summary radix = summarize(radix_s);
    Summary fib_base = summarize(fib_serial_s);
    Summary radix_base = summarize(radix_serial_s);
    const std::string b = backendName(kindOf(chan_backend));
    record.noteSummary("fib_ms." + b, summarize(scaled(fib_s, 1e3)));
    record.noteSummary("radix_ms." + b, summarize(scaled(radix_s, 1e3)));
    record.note("fib_serial_ms", fib_base.median * 1e3);
    record.note("radix_serial_ms", radix_base.median * 1e3);
    record.note("fib_speedup_vs_serial." + b, fib_base.median / fib.median);
    record.note("radix_speedup_vs_serial." + b,
                radix_base.median / radix.median);
    record.note("workers", hostThreads());

    record.metric("setup_s", setup_s, "s");
    record.metric("step1_ms", fib.median * 1e3, "ms");
    record.metric("step2_ms", radix.median * 1e3, "ms");
    record.metric("peak_rss_mb", rss_mb, "MB");
    return record;
}

// --- per-layer (traced) ----------------------------------------------------

namespace {

/** Median ns per operation of `ops` operations, over `reps` batches. */
template <typename Batch>
double
nsPerOp(int reps, uint64_t ops, Batch &&batch)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point start = Clock::now();
        batch();
        samples.push_back(secondsSince(start) * 1e9 /
                          static_cast<double>(ops));
    }
    return summarize(samples).median;
}

} // namespace

void
probeNativeLayers(const Options &opts, bool chan_backend,
                  double fib_seconds, Layers &layers, Record &record)
{
    const std::string b = backendName(kindOf(chan_backend));
    RadixInput input(opts.seed);
    NativeRig rig(kindOf(chan_backend), hostThreads());
    RuntimeBackend &pool = *rig.pool;

    // Empty-task spawn + join through TaskGroup.
    constexpr uint64_t kSpawns = 20000;
    layers.counts["runtime.spawn_join_ns." + b] =
        nsPerOp(15, kSpawns, [&] {
            TaskGroup group(pool);
            for (uint64_t i = 0; i < kSpawns; ++i)
                group.run([] {});
            group.wait();
        });
    // Empty-body parallelFor, one leaf per index.
    constexpr int64_t kLeaves = 20000;
    layers.counts["runtime.pfor_leaf_ns." + b] =
        nsPerOp(15, kLeaves, [&] {
            parallelFor(pool, 0, kLeaves, 1, [](int64_t, int64_t) {});
        });

    // The workload's two kernels, with the pool's protocol counters.
    const chan::ChannelPool *cp = rig.channelPool();
    const uint64_t steals0 = pool.steals();
    const uint64_t requests0 = cp ? cp->requestsSent() : 0;
    const uint64_t received0 = cp ? cp->tasksReceived() : 0;
    const uint64_t declines0 = cp ? cp->declines() : 0;
    uint64_t fib_reps = 0;
    uint64_t spawned = 0;
    Clock::time_point start = Clock::now();
    while (fib_reps < 3 || secondsSince(start) < fib_seconds) {
        uint64_t value = rig.fib();
        record.attempted++;
        record.failed += value != kFibExpected;
        fib_reps++;
        spawned += fibSpawns(kFibN);
    }
    const uint64_t fib_steals = pool.steals() - steals0;
    for (int r = 0; r < 3; ++r) {
        rig.radix(input);
        record.attempted++;
        record.failed += !input.valid(rig.data);
    }
    layers.counts["runtime.steals_per_ktask." + b] =
        1e3 * static_cast<double>(fib_steals) / static_cast<double>(spawned);
    if (cp) {
        double requests = static_cast<double>(cp->requestsSent() - requests0);
        double steals = static_cast<double>(pool.steals() - steals0);
        double received =
            static_cast<double>(cp->tasksReceived() - received0);
        double declines = static_cast<double>(cp->declines() - declines0);
        layers.counts["chan.requests_per_steal"] =
            steals > 0 ? requests / steals : 0.0;
        layers.counts["chan.tasks_per_steal"] =
            steals > 0 ? received / steals : 0.0;
        layers.counts["chan.decline_share"] =
            requests > 0 ? declines / requests : 0.0;
    }
}

void
emitNativeLayers(const Layers &deque_layers, const Layers &chan_layers,
                 Record &record)
{
    // Single-threaded structure costs: the deque owner path and a
    // thief's steal, and one SPSC message round trip.
    constexpr uint64_t kOps = 200000;
    ChaseLevDeque<int64_t> dq;
    int64_t out = 0;
    double push_pop = nsPerOp(15, kOps, [&] {
        for (uint64_t i = 0; i < kOps; ++i) {
            dq.push(static_cast<int64_t>(i));
            dq.pop(out);
        }
    });
    double steal = nsPerOp(15, kOps, [&] {
        for (uint64_t i = 0; i < kOps; ++i) {
            dq.push(static_cast<int64_t>(i));
            dq.steal(out);
        }
    });
    chan::SpscChannel<int64_t> ch(64);
    double send_recv = nsPerOp(15, kOps, [&] {
        for (uint64_t i = 0; i < kOps; ++i) {
            ch.trySend(static_cast<int64_t>(i));
            ch.tryRecv(out);
        }
    });

    for (const char *b : {"deque", "chan"}) {
        const Layers &l = std::string(b) == "deque" ? deque_layers
                                                    : chan_layers;
        const std::string sfx = std::string(".") + b;
        record.metric("runtime.spawn_join_ns" + sfx,
                      l.count("runtime.spawn_join_ns" + sfx), "ns");
        record.metric("runtime.pfor_leaf_ns" + sfx,
                      l.count("runtime.pfor_leaf_ns" + sfx), "ns");
        record.metric("runtime.steals_per_ktask" + sfx,
                      l.count("runtime.steals_per_ktask" + sfx), "1/ktask");
    }
    record.metric("deque.push_pop_ns", push_pop, "ns");
    record.metric("deque.steal_ns", steal, "ns");
    record.metric("chan.send_recv_ns", send_recv, "ns");
    record.metric("chan.requests_per_steal",
                  chan_layers.count("chan.requests_per_steal"), "ratio");
    record.metric("chan.tasks_per_steal",
                  chan_layers.count("chan.tasks_per_steal"), "ratio");
    record.metric("chan.decline_share",
                  chan_layers.count("chan.decline_share"), "ratio");
}

Record
traceNative(const Options &opts, bool chan_backend)
{
    Record record;

    // Untraced reference: the fib repetitions timed as a whole, plus
    // each sort's own time (its output check stays outside the timing).
    constexpr int kFibReps = 40;
    constexpr int kRadixReps = 10;
    double untraced_s = 0.0;
    {
        NativeSetup setup(opts, chan_backend);
        record.attempted += kFibWarmReps + kRadixWarmReps;
        record.failed += setup.warm_failures;
        Clock::time_point start = Clock::now();
        for (int i = 0; i < kFibReps; ++i)
            record.failed += setup.rig.fib() != kFibExpected;
        untraced_s = secondsSince(start);
        for (int i = 0; i < kRadixReps; ++i) {
            untraced_s += setup.rig.radix(setup.input);
            record.failed += !setup.input.valid(setup.rig.data);
        }
        record.attempted += kFibReps + kRadixReps;
    }
    // Traced: the same repetitions, each inside a span.
    double traced_s = 0.0;
    {
        Layers spans;
        NativeSetup setup(opts, chan_backend);
        record.attempted += kFibWarmReps + kRadixWarmReps;
        record.failed += setup.warm_failures;
        for (int i = 0; i < kFibReps; ++i)
            record.failed += timed(spans, "fib", [&] {
                return setup.rig.fib();
            }) != kFibExpected;
        for (int i = 0; i < kRadixReps; ++i) {
            timed(spans, "radix", [&] { return setup.rig.radix(setup.input); });
            record.failed += !setup.input.valid(setup.rig.data);
        }
        traced_s = spans.seconds("fib") + spans.seconds("radix");
        record.attempted += kFibReps + kRadixReps;
    }

    // Native layers on both backends, the workload's own one longer;
    // the simulator layers from their fixed probes.
    Layers deque_layers;
    Layers chan_layers;
    probeNativeLayers(opts, false, chan_backend ? 0.5 : 2.0, deque_layers,
                      record);
    probeNativeLayers(opts, true, chan_backend ? 2.0 : 0.5, chan_layers,
                      record);
    Layers sim_layers;
    probeSimLayers(opts, sim_layers, record);
    probeServeLayers(opts, sim_layers, record);

    emitSimLayers(sim_layers, record);
    emitServeLayers(sim_layers, record);
    emitNativeLayers(deque_layers, chan_layers, record);
    record.metric("bench.untraced_s", untraced_s, "s");
    record.metric("bench.traced_s", traced_s, "s");
    record.note("trace_overhead_s", traced_s - untraced_s);
    return record;
}

} // namespace perfbench
