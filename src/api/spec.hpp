/**
 * @file
 * ExperimentSpec: a declarative description of a full experiment.
 *
 * Every figure and table of the paper is a sweep over some subset of
 * the axes (scheme x workload group x threshold x threshold mode x
 * partitioner x replacement policy x gating mode x seed) at one
 * scale, rendered as a table. An ExperimentSpec names those axes by
 * their registry keys (api/registry.hpp); expandSpec() turns the spec into
 * the cross-product of RunKeys the executor prefetches.
 *
 * Specs and RunKeys both have a stable canonical text encoding with an
 * exact parse/format round-trip (parseSpec(formatSpec(s)) == s):
 *
 *  - `coopsim_cli --spec <file>` runs any figure from a spec file;
 *  - the RunKey line format is the merge key of the result store
 *    (store/result_store.hpp): journals, merged stores and store
 *    files copied from other hosts fold together by it.
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
     *  - a column axis ("schemes", "thresholds", "threshold_modes",
     *    "partitioners", "repl", "gating"; see ColumnAxis): rows =
     *    groups, one column per value of that axis, every cell
     *    normalised to the baseline value (Figures 5-13, the scaling
     *    sweep, the ablations);
     *  - "takeover": the Figure 14 takeover-event breakdown of the
     *    first scheme;
     *  - "transfers": the Figure 15 way-transfer-time comparison of
     *    the first two schemes;
     *  - "bandwidth": the Figure 16 flush-traffic time series of the
     *    first two schemes;
     *  - "mpki": Table 3, the measured and paper MPKI class of each
     *    app of the solos axis;
     *  - "none": no built-in renderer (custom printers / single-cell
     *    mode).
     */
    std::string layout = "schemes";
    /** Cell metric: a metric-registry name ("speedup",
     *  "dynamic_energy", "static_energy"). */
    std::string metric = "speedup";
    /** Normalisation column under a column-axis layout: a value of
     *  that axis (thresholds compare as numbers). */
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
    /** Slice-hash registry names ("mod", "xor"), routing over the
     *  topology row's banks (monolithic through 16 cores, banked
     *  32/64-core rows). */
    std::vector<std::string> slice_hashes = {"mod"};
    /** Sampling-mode registry names ("exact", "set", "op", "setop");
     *  an axis so one spec can sweep estimator against reference. */
    std::vector<std::string> sampling = {"exact"};
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
    /** Slice-hash registry name ("mod", "xor"). */
    std::string slice_hash;
    /** Sampling-mode registry name ("exact", "set", "op", "setop"). */
    std::string sampling;

    bool operator==(const Cell &) const = default;
};

/**
 * A sweep axis whose values a normalised table turns into columns:
 * the layout of the same name prints one column per axis value, each
 * cell normalised to the column the spec's baseline selects.
 */
struct ColumnAxis
{
    /** The layout name, which is also the axis's spec key. */
    const char *name;
    /** The spec's axis values as spec text. */
    std::vector<std::string> (*values)(const ExperimentSpec &spec);
    /** The column heading of @p value. */
    std::string (*heading)(const std::string &value);
    /** Sets the Cell field the axis addresses to @p value. */
    void (*select)(Cell &cell, const std::string &value);
    /** Width of the group column. */
    int group_width;
    /** The note under the title; nullptr prints "normalised to
     *  <baseline heading>; higher|lower is better". */
    std::string (*note)(const ExperimentSpec &spec) = nullptr;
};

/** The column axis of @p layout, or nullptr when the layout has no
 *  column axis. */
const ColumnAxis *findColumnAxis(const std::string &layout);

/** The workload groups the spec's group names/globs resolve to. */
std::vector<trace::WorkloadGroup>
resolveSpecGroups(const ExperimentSpec &spec);

/** The apps the solos axis names ("*" expands to all of Table 3). */
std::vector<std::string> resolveSpecSolos(const ExperimentSpec &spec);

/**
 * The RunKey of @p group's run at @p cell under @p spec: the one place
 * a group key is built (expandSpec and ExperimentResults::keyFor both
 * call it). Axis values the cell leaves unset take the first value of
 * the spec's axis (fatal when that axis is empty). @p cell.group is
 * not read.
 */
sim::RunKey groupRunKey(const ExperimentSpec &spec,
                        const trace::WorkloadGroup &group,
                        const Cell &cell = {});

/**
 * The RunKey of @p app's solo baseline on the @p cores-core system, as
 * read by @p cell: the one place a solo key is built. A solo runs on
 * the unmanaged LLC of the topology's default organisation, so the
 * scheme-only fields (threshold, threshold mode, partitioner, gating)
 * and the slice hash are reset and a threshold or partitioner sweep shares
 * one baseline; repl, seed and sampling are inherited from the cell,
 * so a sampled sweep's baselines are sampled too. @p cell.group is
 * not read.
 */
sim::RunKey soloRunKey(const ExperimentSpec &spec, const std::string &app,
                       std::uint32_t cores, const Cell &cell = {});

/**
 * Expands @p spec into the cross-product of RunKeys: one Group key
 * per (group x scheme x threshold x threshold_mode x partitioner x
 * repl x gating x slice hash x sampling x seed), followed by
 * the deduplicated Solo keys (per-app baselines when with_solo, plus
 * the explicit solos axis). Deterministic order. Validates every name
 * in @p spec against its registry first (fatal with the offending
 * name otherwise).
 */
std::vector<sim::RunKey> expandSpec(const ExperimentSpec &spec);

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
 *  gating=gatedvdd seed=42". A non-mod slice hash appends
 *  "banks=0 slice-hash=NAME", a sampled mode "sampling=NAME
 *  sample-period=0 op-windows=0": the zeros are constant fields that
 *  keep the key text stored lines already hold. */
std::string formatRunKey(const sim::RunKey &key);

/** Parses formatRunKey() output; parseRunKey(formatRunKey(k)) == k. */
sim::RunKey parseRunKey(const std::string &line);

/** Non-fatal parseRunKey: false on malformed input, unknown registry
 *  names, a non-finite threshold, or anything but "0" in the banks,
 *  sample-period and op-windows fields (the result-store loader skips
 *  such lines). */
bool tryParseRunKey(const std::string &line, sim::RunKey &out);

} // namespace coopsim::api

#endif // COOPSIM_API_SPEC_HPP
