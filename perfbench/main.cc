/**
 * @file
 * The repository benchmark program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--commit ID] [--setup-only]
 *             [--corrupt sim|radix]
 *
 * Prints a `perfbench-meta` line (nproc, compiler, build type, commit,
 * seed, tracing), `perfbench-info` lines with the named end-to-end
 * numbers, and as its last line one JSON result:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * holding the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1).  perfbench/run.py builds this benchmark binary and runs it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "common/json.h"

namespace perfbench {
namespace {

/** Names accepted by --workload, in BENCHMARK.json order. */
const char *const kWorkloads[] = {"sim_sweeps", "native_deque",
                                  "native_chan"};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--commit ID] "
                 "[--setup-only] [--corrupt sim|radix]\n",
                 why);
    std::exit(2);
}

bool
parseU64(const char *text, uint64_t &out)
{
    if (!text || !*text)
        return false;
    char *end = nullptr;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (*end != '\0')
        return false;
    out = value;
    return true;
}

Options
parseOptions(int argc, char **argv, std::string &commit)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            opts.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            if (!parseU64(value(), opts.seed))
                usage("--seed: expected a non-negative integer");
        } else if (arg == "--seconds") {
            uint64_t s = 0;
            if (!parseU64(value(), s) || s == 0)
                usage("--seconds: expected a positive integer");
            opts.seconds = static_cast<double>(s);
        } else if (arg == "--trace") {
            std::string t = value();
            if (t != "0" && t != "1")
                usage("--trace: expected 0 or 1");
            opts.trace = t == "1";
        } else if (arg == "--work-dir") {
            opts.work_dir = value();
        } else if (arg == "--commit") {
            commit = value();
        } else if (arg == "--setup-only") {
            opts.setup_only = true;
        } else if (arg == "--corrupt") {
            opts.corrupt = value();
            if (opts.corrupt != "sim" && opts.corrupt != "radix")
                usage("--corrupt: expected sim or radix");
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    bool known = false;
    for (const char *name : kWorkloads)
        known = known || opts.workload == name;
    if (!known)
        usage(("unknown workload " + opts.workload).c_str());
    return opts;
}

/**
 * Timings from a non-Release or sanitizer build measure a different
 * program; refuse to report them.
 */
const char *
unfitBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(AAWS_SANITIZER_BUILD)
    return "sanitizer build";
#endif
#ifndef NDEBUG
    return "assertions enabled (NDEBUG unset)";
#endif
    if (std::strcmp(AAWS_PERFBENCH_BUILD_TYPE, "Release") != 0)
        return "build type is not Release";
    return nullptr;
}

std::string
number(double value)
{
    return aaws::json::encodeDouble(value);
}

void
printMeta(const Options &opts, const std::string &commit)
{
    std::printf("perfbench-meta {\"workload\":%s,\"seed\":%llu,"
                "\"seconds\":%s,\"trace\":%d,\"nproc\":%d,"
                "\"compiler\":%s,\"build_type\":%s,\"commit\":%s}\n",
                aaws::json::encodeString(opts.workload).c_str(),
                static_cast<unsigned long long>(opts.seed),
                number(opts.seconds).c_str(), opts.trace ? 1 : 0,
                hostThreads(),
                aaws::json::encodeString("gcc " __VERSION__).c_str(),
                aaws::json::encodeString(AAWS_PERFBENCH_BUILD_TYPE).c_str(),
                aaws::json::encodeString(commit).c_str());
}

void
printRecord(const Record &record)
{
    std::string info = "perfbench-info {";
    for (size_t i = 0; i < record.info.size(); ++i) {
        info += i ? "," : "";
        info += aaws::json::encodeString(record.info[i].first) + ":" +
                number(record.info[i].second);
    }
    std::printf("%s}\n", info.c_str());

    std::string out = "{\"correct\": ";
    out += record.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(record.attempted);
    out += ", \"failed\": " + std::to_string(record.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < record.metrics.size(); ++i) {
        const auto &[name, value] = record.metrics[i];
        out += i ? ", " : "";
        out += aaws::json::encodeString(name) + ": {\"value\": " +
               number(value.first) + ", \"unit\": " +
               aaws::json::encodeString(value.second) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

Record
run(const Options &opts)
{
    const std::string &w = opts.workload;
    if (w == "sim_sweeps")
        return opts.trace ? traceSimSweeps(opts) : runSimSweeps(opts);
    bool chan = w == "native_chan";
    return opts.trace ? traceNative(opts, chan) : runNative(opts, chan);
}

double
setupOnly(const Options &opts)
{
    const std::string &w = opts.workload;
    if (w == "sim_sweeps")
        return setupSimSweeps(opts);
    return setupNative(opts, w == "native_chan");
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string commit = "unknown";
    Options opts = parseOptions(argc, argv, commit);
    if (const char *why = unfitBuild()) {
        std::fprintf(stderr, "perfbench: refusing to time a %s\n", why);
        return 3;
    }
    try {
        if (opts.setup_only) {
            double setup_s = setupOnly(opts);
            std::printf("{\"setup_s\": %s}\n", number(setup_s).c_str());
            return 0;
        }
        printMeta(opts, commit);
        std::fflush(stdout);
        printRecord(run(opts));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
