#include "exp/run_spec.h"

#include "common/json.h"
#include "common/logging.h"
#include "serve/sim_server.h"
#include "sim/machine.h"
#include "sim/result_json.h"

namespace aaws {
namespace exp {

std::string
canonicalSpec(const RunSpec &spec)
{
    std::string out = strfmt(
        "aaws-exp/v%u;kernel=%s;system=%s;variant=%s;seed=0x%llx;trace=%d",
        kCacheSchemaVersion, spec.kernel.c_str(), systemName(spec.system),
        variantName(spec.variant),
        static_cast<unsigned long long>(spec.seed),
        spec.collect_trace ? 1 : 0);
    // Overrides append in a fixed order, and only when set, so a spec
    // without overrides hashes identically across engine versions that
    // add new override knobs.
    const SpecOverrides &o = spec.overrides;
    if (o.topology)
        out += ";topology=" + *o.topology;
    if (o.steal_attempt_cycles)
        out += strfmt(";steal_attempt_cycles=%llu",
                      static_cast<unsigned long long>(
                          *o.steal_attempt_cycles));
    if (o.mug_interrupt_cycles)
        out += strfmt(";mug_interrupt_cycles=%llu",
                      static_cast<unsigned long long>(
                          *o.mug_interrupt_cycles));
    if (o.regulator_ns_per_step)
        out += ";regulator_ns_per_step=" +
               json::encodeDouble(*o.regulator_ns_per_step);
    if (spec.serve)
        out += serve::canonicalServeFragment(*spec.serve);
    return out;
}

uint64_t
specHash(const RunSpec &spec)
{
    // FNV-1a, 64-bit.
    uint64_t hash = 14695981039346656037ull;
    for (char c : canonicalSpec(spec)) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

void
applyOverrides(MachineConfig &config, const SpecOverrides &overrides)
{
    if (overrides.topology)
        config.topology = makeTopology(*overrides.topology,
                                       config.app_params);
    if (overrides.steal_attempt_cycles)
        config.costs.steal_attempt_cycles = *overrides.steal_attempt_cycles;
    if (overrides.mug_interrupt_cycles)
        config.costs.mug_interrupt_cycles = *overrides.mug_interrupt_cycles;
    if (overrides.regulator_ns_per_step)
        config.regulator_ns_per_step = *overrides.regulator_ns_per_step;
}

MachineConfig
configForSpec(const Kernel &kernel, const RunSpec &spec)
{
    MachineConfig config =
        configFor(kernel, spec.system, spec.variant, spec.collect_trace);
    applyOverrides(config, spec.overrides);
    return config;
}

RunResult
labelledResult(const RunSpec &spec, SimResult sim)
{
    RunResult result;
    result.kernel = spec.kernel;
    result.system = spec.system;
    result.variant = spec.variant;
    result.sim = std::move(sim);
    return result;
}

RunResult
executeSpec(const RunSpec &spec)
{
    if (spec.serve) {
        std::optional<Kernel> sample;
        auto generate = [&](uint64_t seed) -> const Kernel & {
            return sample.emplace(makeKernel(spec.kernel, seed));
        };
        return executeServing(spec, buildServiceTable(spec, generate));
    }
    Kernel kernel = makeKernel(spec.kernel, spec.seed);
    return executeSpec(spec, kernel);
}

RunResult
executeSpec(const RunSpec &spec, const Kernel &kernel)
{
    AAWS_ASSERT(!spec.serve, "serving specs run through executeServing");
    MachineConfig config = configForSpec(kernel, spec);
    return labelledResult(spec, Machine(config, kernel.dag).run());
}

std::vector<serve::ServiceSample>
buildServiceTable(const RunSpec &spec, const SampleKernels &kernel_at)
{
    AAWS_ASSERT(spec.serve, "service tables belong to serving specs");
    const uint32_t samples = spec.serve->service_samples;
    AAWS_ASSERT(samples >= 1, "service table needs at least one sample");
    std::vector<serve::ServiceSample> table;
    table.reserve(samples);
    for (uint32_t k = 0; k < samples; ++k) {
        const Kernel &kernel = kernel_at(serve::deriveSeed(spec.seed, k));
        MachineConfig config = configForSpec(kernel, spec);
        config.collect_trace = false;
        table.push_back(
            serve::serviceSampleOf(Machine(config, kernel.dag).run()));
    }
    return table;
}

RunResult
executeServing(const RunSpec &spec,
               const std::vector<serve::ServiceSample> &table)
{
    return labelledResult(
        spec, serve::simulateService(table, spec.seed, *spec.serve));
}

std::string
runResultToJson(const RunResult &result)
{
    std::string out = "{\"kernel\":";
    out += json::encodeString(result.kernel);
    out += ",\"system\":";
    out += json::encodeString(systemName(result.system));
    out += ",\"variant\":";
    out += json::encodeString(variantName(result.variant));
    out += ",\"sim\":";
    out += simResultToJson(result.sim);
    out += "}";
    return out;
}

namespace {

bool
systemFromNameLenient(const std::string &name, SystemShape &out)
{
    for (SystemShape shape : {SystemShape::s4B4L, SystemShape::s1B7L}) {
        if (name == systemName(shape)) {
            out = shape;
            return true;
        }
    }
    return false;
}

bool
variantFromNameLenient(const std::string &name, Variant &out)
{
    for (Variant v : allVariants()) {
        if (name == variantName(v)) {
            out = v;
            return true;
        }
    }
    return false;
}

} // namespace

bool
runResultFromJson(const std::string &text, RunResult &out)
{
    json::Value value;
    return json::parse(text, value) && runResultFromJson(value, out);
}

bool
runResultFromJson(const json::Value &value, RunResult &out)
{
    if (value.kind != json::Value::Kind::object)
        return false;
    const json::Value *kernel = value.find("kernel");
    const json::Value *system = value.find("system");
    const json::Value *variant = value.find("variant");
    const json::Value *sim = value.find("sim");
    std::string system_name;
    std::string variant_name;
    if (!kernel || !kernel->getString(out.kernel) || !system ||
        !system->getString(system_name) || !variant ||
        !variant->getString(variant_name) || !sim)
        return false;
    if (!systemFromNameLenient(system_name, out.system) ||
        !variantFromNameLenient(variant_name, out.variant))
        return false;
    return simResultFromJson(*sim, out.sim);
}

} // namespace exp
} // namespace aaws
