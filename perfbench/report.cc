#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

/** Linear-interpolated quantile of sorted samples (q in [0, 1]). */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.size() == 1)
        return sorted[0];
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.count = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.median = quantile(samples, 0.5);
    s.q1 = quantile(samples, 0.25);
    s.q3 = quantile(samples, 0.75);
    // Nearest-rank percentile p sits at rank ceil(p * n / 100); keep the
    // highest p that still leaves ten samples above that rank.
    const size_t n = samples.size();
    for (int p = 99; p >= 50; --p) {
        size_t rank = (static_cast<size_t>(p) * n + 99) / 100;
        if (rank >= 1 && n - rank >= 10) {
            s.tail_pct = p;
            s.tail = samples[rank - 1];
            break;
        }
    }
    return s;
}

int
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        int n = CPU_COUNT(&set);
        if (n > 0)
            return n;
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    // VmHWM honors resetPeakRss(); ru_maxrss is the fallback.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
resetPeakRss()
{
    malloc_trim(0);
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

uint64_t
subSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void
Record::noteSummary(const std::string &name, const Summary &s)
{
    note(name, s.median);
    note(name + ".q1", s.q1);
    note(name + ".q3", s.q3);
    if (s.tail_pct > 0)
        note(name + ".p" + std::to_string(s.tail_pct), s.tail);
    note(name + ".n", static_cast<double>(s.count));
}

double
Layers::seconds(const std::string &name) const
{
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second;
}

double
Layers::count(const std::string &name) const
{
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
}

} // namespace perfbench
