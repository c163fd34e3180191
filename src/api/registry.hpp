/**
 * @file
 * String-keyed registries: the name -> value/factory tables behind the
 * declarative experiment API.
 *
 * Every axis of an ExperimentSpec (scheme, replacement policy, gating
 * mode, threshold mode, scale, workload group) is addressed by a short
 * canonical name — the same names the spec text encoding and the
 * command-line flags use. The registries own those names:
 *
 *  - the built-in values are pre-registered (schemes "unmanaged",
 *    "fairshare", "ucp", "cpe", "coop"; policies "lru", "random",
 *    "mru"; and so on);
 *  - extensions register additional entries at startup
 *    (registerScheme() turns examples/custom_policy.cpp into a
 *    registration call instead of a fork of the simulator);
 *  - lookups by unknown name are fatal with the list of known names,
 *    so a typo in a spec file or flag fails loudly.
 *
 * Thread-safety: registration is expected at startup, before any
 * simulation is enqueued; lookups afterwards are read-only and safe
 * from the executor's worker threads.
 */

#ifndef COOPSIM_API_REGISTRY_HPP
#define COOPSIM_API_REGISTRY_HPP

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/replacement.hpp"
#include "common/logging.hpp"
#include "llc/shared_cache.hpp"
#include "partition/partitioner.hpp"
#include "sampling/sampling.hpp"
#include "trace/workloads.hpp"

namespace coopsim::sim
{
enum class RunScale;
}

namespace coopsim::api
{

/**
 * Ordered name -> value table. Entries keep registration order (so
 * names() is deterministic and tables print in legend order); lookups
 * are linear — every registry here holds a handful of entries.
 */
template <typename T>
class Registry
{
  public:
    /** @param kind Noun used in error messages ("scheme", ...). */
    explicit Registry(std::string kind) : kind_(std::move(kind)) {}

    /** Registers @p value under @p name; fatal on a duplicate name. */
    void add(const std::string &name, T value)
    {
        if (find(name) != nullptr) {
            COOPSIM_FATAL("duplicate ", kind_, " registration '", name,
                          "'");
        }
        entries_.emplace_back(name, std::move(value));
    }

    /** The entry registered as @p name, or nullptr. */
    const T *find(const std::string &name) const
    {
        for (const auto &[key, value] : entries_) {
            if (key == name) {
                return &value;
            }
        }
        return nullptr;
    }

    /** The entry registered as @p name; fatal (listing the known
     *  names) when absent. */
    const T &get(const std::string &name) const
    {
        if (const T *value = find(name)) {
            return *value;
        }
        std::string known;
        for (const auto &[key, value] : entries_) {
            known += known.empty() ? "" : ", ";
            known += key;
        }
        COOPSIM_FATAL("unknown ", kind_, " '", name, "' (known: ",
                      known, ")");
    }

    bool contains(const std::string &name) const
    {
        return find(name) != nullptr;
    }

    /** Registered names, in registration order. */
    std::vector<std::string> names() const
    {
        std::vector<std::string> result;
        result.reserve(entries_.size());
        for (const auto &[key, value] : entries_) {
            result.push_back(key);
        }
        return result;
    }

  private:
    std::string kind_;
    std::vector<std::pair<std::string, T>> entries_;
};

// ---------------------------------------------------------------------------
// Schemes

/** Builds the LLC an entry's scheme describes. */
using LlcFactory = std::function<std::unique_ptr<llc::BaseLlc>(
    const llc::LlcConfig &, mem::DramModel &)>;

/** One registered LLC management scheme. */
struct SchemeEntry
{
    /** Display label (the paper's legend name, e.g. "Cooperative"). */
    std::string label;
    LlcFactory factory;
};

/** The scheme table; the five built-ins are pre-registered under
 *  "unmanaged", "fairshare", "ucp", "cpe" and "coop". */
Registry<SchemeEntry> &schemeRegistry();

/** Registers a custom scheme constructible by @p name. */
void registerScheme(const std::string &name, const std::string &label,
                    LlcFactory factory);

/** Display label of the scheme registered as @p name (fatal if
 *  unknown). */
const std::string &schemeLabel(const std::string &name);

/**
 * Constructs the LLC registered as @p name (fatal if unknown). With
 * config.banks > 1 — or the Xor slice hash, which needs the hash
 * stage even over one bank — the scheme is instantiated per bank
 * behind a BankedLlc; otherwise the scheme instance is returned
 * directly (the monolithic path, byte-identical to the pre-banking
 * behaviour).
 */
std::unique_ptr<llc::Llc> makeLlcByName(const std::string &name,
                                        const llc::LlcConfig &config,
                                        mem::DramModel &dram);

// ---------------------------------------------------------------------------
// Small value axes

Registry<cache::ReplPolicy> &replPolicyRegistry();
Registry<llc::GatingMode> &gatingModeRegistry();
Registry<partition::ThresholdMode> &thresholdModeRegistry();
/** The epoch way-allocation algorithms ("lookahead", "equalshare",
 *  "greedy"; see partition/partitioner.hpp). */
Registry<partition::Partitioner> &partitionerRegistry();
Registry<sim::RunScale> &scaleRegistry();
/** The slice-selection hashes ("mod", "xor"; llc/slice_hash.hpp). */
Registry<llc::SliceHashKind> &sliceHashRegistry();
/** The sampling estimators ("exact", "set", "op", "setop";
 *  sampling/sampling.hpp). */
Registry<sampling::Mode> &samplingRegistry();

/** Canonical names of the built-in enum values (the inverse of the
 *  registries above, for RunKey formatting). */
std::string replPolicyKeyOf(cache::ReplPolicy policy);
std::string gatingModeKeyOf(llc::GatingMode mode);
std::string thresholdModeKeyOf(partition::ThresholdMode mode);
std::string partitionerKeyOf(partition::Partitioner partitioner);
std::string scaleKeyOf(sim::RunScale scale);
std::string sliceHashKeyOf(llc::SliceHashKind kind);
std::string samplingKeyOf(sampling::Mode mode);

// ---------------------------------------------------------------------------
// Workloads

/** The workload-group table, pre-registered with every Table 4 group
 *  (G2-1..G2-14, G4-1..G4-14). Custom groups may be added. */
Registry<trace::WorkloadGroup> &workloadRegistry();

/**
 * Expands one group name or glob over the registry: "G2-3" resolves
 * to that group, "G2-*" to every group whose name matches. Fatal when
 * nothing matches.
 */
std::vector<trace::WorkloadGroup>
resolveWorkloads(const std::string &pattern);

// ---------------------------------------------------------------------------
// Warm-up

/**
 * Constructs every function-local-static table a simulation resolves
 * through — the trace group/profile tables and all of the registries
 * above — so they exist before any thread pool needs them.
 * RunExecutor::instance() calls this before building the pool
 * (statics are destroyed in reverse construction order, so the
 * executor's destructor must run while the tables are still alive),
 * and perfbench's coopbench calls it at the start of its timed
 * set-up, through the same path instead of a copy-pasted call list.
 */
void warmAllRegistries();

} // namespace coopsim::api

#endif // COOPSIM_API_REGISTRY_HPP
