/**
 * @file
 * ExperimentSpec: a declarative description of a full experiment.
 *
 * Every figure and table of the paper is a sweep over some subset of
 * the axes (scheme x workload group x threshold x threshold mode x
 * partitioner x replacement policy x gating mode x seed) at one
 * scale, rendered as a normalised table. An ExperimentSpec names those axes by their
 * registry keys (api/registry.hpp); expandSpec() turns the spec into
 * the cross-product of RunKeys the executor prefetches.
 *
 * Specs and RunKeys both have a stable canonical text encoding with an
 * exact parse/format round-trip (parseSpec(formatSpec(s)) == s):
 *
 *  - `coopsim_cli --spec <file>` runs any figure from a spec file;
 *  - the RunKey line format is the merge key for the planned
 *    disk-backed result store (ROADMAP "Sharded sweeps").
 *
 * Doubles are encoded with %.17g, which round-trips every IEEE-754
 * binary64 value exactly.
 */

#ifndef COOPSIM_API_SPEC_HPP
#define COOPSIM_API_SPEC_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/executor.hpp"
#include "trace/workloads.hpp"

namespace coopsim::api
{

/**
 * One experiment: the sweep axes plus how to present the result
 * table. All names are registry keys; groups may use a trailing-*
 * glob ("G2-*" = all fourteen two-core groups).
 */
struct ExperimentSpec
{
    /** Identifier ("fig05"); used in filenames and logs. */
    std::string name;
    /** Table heading ("Figure 5: weighted speedup, ..."). */
    std::string title;

    /**
     * Table layout:
     *  - "schemes": rows = groups, columns = schemes, normalised to
     *    the baseline scheme (Figures 5-10);
     *  - "thresholds": columns = threshold values, normalised to the
     *    baseline threshold (Figures 11-13);
     *  - "partitioners": columns = partitioner names, normalised to
     *    the baseline partitioner (the N-core scaling sweep);
     *  - "takeover": the Figure 14 takeover-event breakdown of the
     *    first scheme;
     *  - "transfers": the Figure 15 way-transfer-time comparison of
     *    the first two schemes;
     *  - "bandwidth": the Figure 16 flush-traffic time series of the
     *    first two schemes;
     *  - "none": no built-in renderer (custom printers / single-cell
     *    mode).
     */
    std::string layout = "schemes";
    /** Cell metric: a metric-registry name ("speedup",
     *  "dynamic_energy", "static_energy"). */
    std::string metric = "speedup";
    /** Normalisation column: a scheme name under the "schemes"
     *  layout, a threshold value text under "thresholds". */
    std::string baseline = "fairshare";
    /** Direction annotation in the table header. */
    bool higher_better = true;
    /** Prefetch each group's per-app solo baselines (needed by the
     *  weighted-speedup metric only). */
    bool with_solo = true;

    // --- sweep axes (cross-product) ------------------------------------
    std::vector<std::string> schemes = {"coop"};
    /** Group names or globs, expanded via the workload registry. */
    std::vector<std::string> groups;
    /**
     * Core-count filter over the resolved groups: when non-empty, only
     * groups with that many applications survive (so `groups G2-* G4-*
     * G8-*` + `cores 8` slices a sweep by topology without editing the
     * group lists). Fatal when the filter empties a non-empty axis.
     */
    std::vector<std::uint32_t> cores;
    std::vector<double> thresholds = {0.05};
    std::vector<std::string> threshold_modes = {"missratio"};
    /** Epoch way-allocation algorithms (partitioner registry). */
    std::vector<std::string> partitioners = {"lookahead"};
    std::vector<std::string> repl = {"lru"};
    std::vector<std::string> gating = {"gatedvdd"};
    std::vector<std::uint64_t> seeds = {42};
    /** LLC bank counts; 0 = the topology row's default (monolithic
     *  through 16 cores, banked 32/64-core rows). */
    std::vector<std::uint32_t> banks = {0};
    /** Slice-hash registry names ("mod", "xor"). */
    std::vector<std::string> slice_hashes = {"mod"};
    /** Sampling-mode registry names ("exact", "set", "op", "setop");
     *  an axis so one spec can sweep estimator against reference. */
    std::vector<std::string> sampling = {"exact"};
    /** Sampling knobs (scalars, applied to every sampled key; 0 = the
     *  estimator defaults in sampling/sampling.hpp). */
    std::uint32_t set_sample_period = 0;
    std::uint32_t op_sample_windows = 0;
    /** Scale-registry name: "test", "bench" or "paper". */
    std::string scale = "bench";
    /** Extra standalone solo runs (Table 3): app names or "*" for
     *  every Table 3 benchmark, run on @ref solo_cores geometry. */
    std::vector<std::string> solos;
    std::uint32_t solo_cores = 2;

    bool operator==(const ExperimentSpec &) const = default;
};

/**
 * Addresses one cell of an experiment: any field left at its default
 * is taken from the spec (the first value of the corresponding axis).
 */
struct Cell
{
    std::string group;
    std::string scheme;
    std::optional<double> threshold;
    std::string threshold_mode;
    std::string partitioner;
    std::string repl;
    std::string gating;
    std::optional<std::uint64_t> seed;
    /** LLC bank count (0 = topology default). */
    std::optional<std::uint32_t> banks;
    /** Slice-hash registry name ("mod", "xor"). */
    std::string slice_hash;
    /** Sampling-mode registry name ("exact", "set", "op", "setop"). */
    std::string sampling;
};

/** Validates every name in @p spec against its registry (fatal with
 *  the offending name otherwise). */
void validateSpec(const ExperimentSpec &spec);

/** The workload groups the spec's group names/globs resolve to. */
std::vector<trace::WorkloadGroup>
resolveSpecGroups(const ExperimentSpec &spec);

/**
 * The RunKey of @p group's run at @p cell under @p spec: the one place
 * a group key is built (expandSpec and ExperimentResults::keyFor both
 * call it). Axis values the cell leaves unset take the first value of
 * the spec's axis (fatal when that axis is empty); sampling knobs the
 * cell's mode ignores are zeroed, so equal runs have equal keys.
 * @p cell.group is not read.
 */
sim::RunKey groupRunKey(const ExperimentSpec &spec,
                        const trace::WorkloadGroup &group,
                        const Cell &cell = {});

/**
 * The RunKey of @p app's solo baseline on the @p cores-core system, as
 * read by @p cell: the one place a solo key is built. A solo runs on
 * the unmanaged LLC of the topology's default organisation, so the
 * scheme-only fields (threshold, threshold mode, partitioner, gating)
 * and banking are reset and a threshold or partitioner sweep shares
 * one baseline; repl, seed and sampling are inherited from the cell,
 * so a sampled sweep's baselines are sampled too. @p cell.group is
 * not read.
 */
sim::RunKey soloRunKey(const ExperimentSpec &spec, const std::string &app,
                       std::uint32_t cores, const Cell &cell = {});

/**
 * Expands @p spec into the cross-product of RunKeys: one Group key
 * per (group x scheme x threshold x threshold_mode x partitioner x
 * repl x gating x banks x slice hash x sampling x seed), followed by
 * the deduplicated Solo keys (per-app baselines when with_solo, plus
 * the explicit solos axis). Deterministic order.
 */
std::vector<sim::RunKey> expandSpec(const ExperimentSpec &spec);

/**
 * Deterministic shard of an expanded key list: the keys at positions
 * index, index + count, index + 2*count, ... (round-robin, so every
 * shard gets a balanced mix of group and solo runs). The union over
 * index = 0..count-1 is exactly @p keys; fatal when index >= count or
 * count is 0. This is the `coopsim_cli --shard=I/N` slice.
 */
std::vector<sim::RunKey> shardKeys(const std::vector<sim::RunKey> &keys,
                                   unsigned index, unsigned count);

/** Canonical multi-line text encoding (every field, fixed order). */
std::string formatSpec(const ExperimentSpec &spec);

/**
 * Parses the canonical encoding. Unknown keys and malformed values
 * are fatal; omitted keys keep their defaults, so hand-written spec
 * files only state what they change. parseSpec(formatSpec(s)) == s.
 */
ExperimentSpec parseSpec(const std::string &text);

/** Reads and parses a spec file (fatal on I/O errors). */
ExperimentSpec parseSpecFile(const std::string &path);

/** Canonical single-line RunKey encoding (the result-store merge
 *  key), e.g. "group scheme=coop name=G2-3 cores=2 scale=bench
 *  threshold=0.05 tmode=missratio partitioner=lookahead repl=lru
 *  gating=gatedvdd seed=42". */
std::string formatRunKey(const sim::RunKey &key);

/** Parses formatRunKey() output; parseRunKey(formatRunKey(k)) == k. */
sim::RunKey parseRunKey(const std::string &line);

/** Non-fatal parseRunKey: false on malformed input or unknown
 *  registry names (the result-store loader skips such lines). */
bool tryParseRunKey(const std::string &line, sim::RunKey &out);

} // namespace coopsim::api

#endif // COOPSIM_API_SPEC_HPP
