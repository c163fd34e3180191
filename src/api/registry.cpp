#include "api/registry.hpp"

#include "llc/banked.hpp"
#include "llc/schemes.hpp"
#include "sim/system.hpp"
#include "trace/spec_profiles.hpp"

namespace coopsim::api
{

namespace
{

/** Builds one of the built-in schemes. */
template <typename T>
std::unique_ptr<llc::BaseLlc>
build(const llc::LlcConfig &config, mem::DramModel &dram)
{
    return std::make_unique<T>(config, dram);
}

/** Built-in scheme table: registry key, legend label, constructor. */
struct BuiltinScheme
{
    const char *key;
    const char *label;
    std::unique_ptr<llc::BaseLlc> (*build)(const llc::LlcConfig &,
                                           mem::DramModel &);
};

constexpr BuiltinScheme kBuiltinSchemes[] = {
    {"unmanaged", "Unmanaged", build<llc::UnmanagedLlc>},
    {"fairshare", "FairShare", build<llc::FairShareLlc>},
    {"ucp", "UCP", build<llc::UcpLlc>},
    {"cpe", "DynamicCPE", build<llc::DynamicCpeLlc>},
    {"coop", "Cooperative", build<llc::CooperativeLlc>},
};

/** Trailing-* glob: "G2-*" matches "G2-7"; anything else is exact. */
bool
matchesPattern(const std::string &name, const std::string &pattern)
{
    if (!pattern.empty() && pattern.back() == '*') {
        return name.compare(0, pattern.size() - 1, pattern, 0,
                            pattern.size() - 1) == 0;
    }
    return name == pattern;
}

} // namespace

Registry<SchemeEntry> &
schemeRegistry()
{
    static Registry<SchemeEntry> registry = [] {
        Registry<SchemeEntry> r("scheme");
        for (const BuiltinScheme &b : kBuiltinSchemes) {
            r.add(b.key, SchemeEntry{b.label, b.build});
        }
        return r;
    }();
    return registry;
}

void
registerScheme(const std::string &name, const std::string &label,
               LlcFactory factory)
{
    schemeRegistry().add(name, SchemeEntry{label, std::move(factory)});
}

const std::string &
schemeLabel(const std::string &name)
{
    return schemeRegistry().get(name).label;
}

std::unique_ptr<llc::Llc>
makeLlcByName(const std::string &name, const llc::LlcConfig &config,
              mem::DramModel &dram)
{
    const SchemeEntry &entry = schemeRegistry().get(name);
    // Banked wrapping is needed for real bank counts and for the Xor
    // hash (which exercises the hash stage even over one bank). The
    // banks <= 1 + Mod default stays the direct monolithic path, with
    // zero wrapper overhead and byte-identical behaviour.
    if (config.banks > 1 ||
        config.slice_hash == llc::SliceHashKind::Xor) {
        return std::make_unique<llc::BankedLlc>(config, dram,
                                                entry.factory);
    }
    return entry.factory(config, dram);
}

// ---------------------------------------------------------------------------
// Small value axes

Registry<cache::ReplPolicy> &
replPolicyRegistry()
{
    static Registry<cache::ReplPolicy> registry = [] {
        Registry<cache::ReplPolicy> r("replacement policy");
        r.add("lru", cache::ReplPolicy::Lru);
        r.add("random", cache::ReplPolicy::Random);
        r.add("mru", cache::ReplPolicy::Mru);
        return r;
    }();
    return registry;
}

Registry<llc::GatingMode> &
gatingModeRegistry()
{
    static Registry<llc::GatingMode> registry = [] {
        Registry<llc::GatingMode> r("gating mode");
        r.add("gatedvdd", llc::GatingMode::GatedVdd);
        r.add("drowsy", llc::GatingMode::Drowsy);
        return r;
    }();
    return registry;
}

Registry<partition::ThresholdMode> &
thresholdModeRegistry()
{
    static Registry<partition::ThresholdMode> registry = [] {
        Registry<partition::ThresholdMode> r("threshold mode");
        r.add("missratio", partition::ThresholdMode::MissRatio);
        r.add("paperliteral", partition::ThresholdMode::PaperLiteral);
        return r;
    }();
    return registry;
}

Registry<partition::Partitioner> &
partitionerRegistry()
{
    static Registry<partition::Partitioner> registry = [] {
        Registry<partition::Partitioner> r("partitioner");
        r.add("lookahead", partition::Partitioner::Lookahead);
        r.add("equalshare", partition::Partitioner::EqualShare);
        r.add("greedy", partition::Partitioner::GreedyUtility);
        return r;
    }();
    return registry;
}

Registry<sim::RunScale> &
scaleRegistry()
{
    static Registry<sim::RunScale> registry = [] {
        Registry<sim::RunScale> r("scale");
        r.add("test", sim::RunScale::Test);
        r.add("bench", sim::RunScale::Bench);
        r.add("paper", sim::RunScale::Paper);
        return r;
    }();
    return registry;
}

Registry<llc::SliceHashKind> &
sliceHashRegistry()
{
    static Registry<llc::SliceHashKind> registry = [] {
        Registry<llc::SliceHashKind> r("slice hash");
        r.add("mod", llc::SliceHashKind::Mod);
        r.add("xor", llc::SliceHashKind::Xor);
        return r;
    }();
    return registry;
}

Registry<sampling::Mode> &
samplingRegistry()
{
    static Registry<sampling::Mode> registry = [] {
        Registry<sampling::Mode> r("sampling mode");
        r.add("exact", sampling::Mode::Exact);
        r.add("set", sampling::Mode::Set);
        r.add("op", sampling::Mode::Op);
        r.add("setop", sampling::Mode::SetOp);
        return r;
    }();
    return registry;
}

namespace
{

/** Inverse lookup over a small registry (linear; fatal if absent). */
template <typename T>
std::string
keyOfValue(Registry<T> &registry, T value, const char *kind)
{
    for (const std::string &name : registry.names()) {
        if (*registry.find(name) == value) {
            return name;
        }
    }
    COOPSIM_FATAL(kind, " enum value ", static_cast<int>(value),
                  " has no registry name");
}

} // namespace

std::string
replPolicyKeyOf(cache::ReplPolicy policy)
{
    return keyOfValue(replPolicyRegistry(), policy,
                      "replacement policy");
}

std::string
gatingModeKeyOf(llc::GatingMode mode)
{
    return keyOfValue(gatingModeRegistry(), mode, "gating mode");
}

std::string
thresholdModeKeyOf(partition::ThresholdMode mode)
{
    return keyOfValue(thresholdModeRegistry(), mode, "threshold mode");
}

std::string
partitionerKeyOf(partition::Partitioner partitioner)
{
    return keyOfValue(partitionerRegistry(), partitioner, "partitioner");
}

std::string
scaleKeyOf(sim::RunScale scale)
{
    return keyOfValue(scaleRegistry(), scale, "scale");
}

std::string
sliceHashKeyOf(llc::SliceHashKind kind)
{
    return keyOfValue(sliceHashRegistry(), kind, "slice hash");
}

std::string
samplingKeyOf(sampling::Mode mode)
{
    return keyOfValue(samplingRegistry(), mode, "sampling mode");
}

// ---------------------------------------------------------------------------
// Workloads

Registry<trace::WorkloadGroup> &
workloadRegistry()
{
    static Registry<trace::WorkloadGroup> registry = [] {
        Registry<trace::WorkloadGroup> r("workload group");
        for (const auto *groups :
             {&trace::twoCoreGroups(), &trace::fourCoreGroups(),
              &trace::eightCoreGroups(), &trace::sixteenCoreGroups(),
              &trace::thirtyTwoCoreGroups(),
              &trace::sixtyFourCoreGroups()}) {
            for (const trace::WorkloadGroup &g : *groups) {
                r.add(g.name, g);
            }
        }
        return r;
    }();
    return registry;
}

void
warmAllRegistries()
{
    trace::twoCoreGroups();
    trace::fourCoreGroups();
    trace::eightCoreGroups();
    trace::sixteenCoreGroups();
    trace::thirtyTwoCoreGroups();
    trace::sixtyFourCoreGroups();
    trace::specProfile(trace::allSpecApps().front());
    schemeRegistry();
    replPolicyRegistry();
    gatingModeRegistry();
    thresholdModeRegistry();
    partitionerRegistry();
    scaleRegistry();
    sliceHashRegistry();
    samplingRegistry();
    workloadRegistry();
}

std::vector<trace::WorkloadGroup>
resolveWorkloads(const std::string &pattern)
{
    Registry<trace::WorkloadGroup> &registry = workloadRegistry();
    std::vector<trace::WorkloadGroup> groups;
    for (const std::string &name : registry.names()) {
        if (matchesPattern(name, pattern)) {
            groups.push_back(*registry.find(name));
        }
    }
    if (groups.empty()) {
        // Exact-name misses get the full unknown-name diagnostic.
        groups.push_back(registry.get(pattern));
    }
    return groups;
}

} // namespace coopsim::api
