#include "api/spec.hpp"

#include <fstream>
#include <sstream>
#include <unordered_set>

#include "api/parse_util.hpp"
#include "api/registry.hpp"
#include "common/geometry.hpp"
#include "common/logging.hpp"
#include "trace/spec_profiles.hpp"

namespace coopsim::api
{

using detail::fmtDouble;
using detail::parseDouble;
using detail::parseUint;
using detail::parseUint32;
using detail::splitWords;

namespace
{

constexpr const char *kSpecMagic = "coopsim-spec v1";

std::string
joinWords(const std::vector<std::string> &words)
{
    std::string out;
    for (const std::string &word : words) {
        out += out.empty() ? "" : " ";
        out += word;
    }
    return out;
}

bool
parseBool(const std::string &text, const char *what)
{
    if (text == "on") {
        return true;
    }
    if (text == "off") {
        return false;
    }
    COOPSIM_FATAL("invalid ", what, " value '", text,
                  "' (expected on or off)");
}

/** The apps named by the solos axis ("*" expands to all of Table 3). */
std::vector<std::string>
resolveSolos(const ExperimentSpec &spec)
{
    std::vector<std::string> apps;
    for (const std::string &name : spec.solos) {
        if (name == "*") {
            for (const std::string &app : trace::allSpecApps()) {
                apps.push_back(app);
            }
        } else {
            apps.push_back(name);
        }
    }
    return apps;
}

/** First value of an axis, or fatal when the axis is empty and a cell
 *  did not override it. */
template <typename T>
const T &
firstOf(const std::vector<T> &axis, const char *what)
{
    if (axis.empty()) {
        COOPSIM_FATAL("cell does not specify a ", what,
                      " and the spec's ", what, " axis is empty");
    }
    return axis.front();
}

/** A cell's axis value, or the axis's first value when the cell leaves
 *  it unset (an empty name or an empty optional). */
const std::string &
orFirst(const std::string &value, const std::vector<std::string> &axis,
        const char *what)
{
    return !value.empty() ? value : firstOf(axis, what);
}

template <typename T>
const T &
orFirst(const std::optional<T> &value, const std::vector<T> &axis,
        const char *what)
{
    return value ? *value : firstOf(axis, what);
}

/** Sets @p key's sampling mode from @p cell and the spec's knobs,
 *  zeroing the knobs the mode ignores: keys stay canonical, and exact
 *  keys carry no sampling state (they format byte-identically to the
 *  pre-sampling encoding). */
void
setSampling(const ExperimentSpec &spec, const Cell &cell,
            sim::RunKey &key)
{
    const sampling::Mode mode = samplingRegistry().get(
        orFirst(cell.sampling, spec.sampling, "sampling mode"));
    key.sampling = mode;
    key.set_sample_period =
        sampling::setSampled(mode) ? spec.set_sample_period : 0;
    key.op_sample_windows =
        mode != sampling::Mode::Exact ? spec.op_sample_windows : 0;
}

/** validateSpec(), returning the resolved groups it checked so that
 *  expandSpec() resolves them only once. */
std::vector<trace::WorkloadGroup>
checkSpec(const ExperimentSpec &spec)
{
    static const char *kLayouts[] = {
        "schemes",  "thresholds", "partitioners", "takeover",
        "transfers", "bandwidth", "none",
    };
    bool layout_known = false;
    for (const char *layout : kLayouts) {
        layout_known = layout_known || spec.layout == layout;
    }
    if (!layout_known) {
        std::string known;
        for (const char *layout : kLayouts) {
            known += known.empty() ? "" : ", ";
            known += layout;
        }
        COOPSIM_FATAL("unknown layout '", spec.layout, "' (expected ",
                      known, ")");
    }
    for (const std::string &scheme : spec.schemes) {
        schemeRegistry().get(scheme);
    }
    // Fatal on an unknown group name or glob.
    std::vector<trace::WorkloadGroup> groups = resolveSpecGroups(spec);
    for (const std::string &mode : spec.threshold_modes) {
        thresholdModeRegistry().get(mode);
    }
    for (const std::string &partitioner : spec.partitioners) {
        partitionerRegistry().get(partitioner);
    }
    for (const std::string &policy : spec.repl) {
        replPolicyRegistry().get(policy);
    }
    for (const std::string &mode : spec.gating) {
        gatingModeRegistry().get(mode);
    }
    for (const std::string &hash : spec.slice_hashes) {
        sliceHashRegistry().get(hash);
    }
    for (const std::string &mode : spec.sampling) {
        samplingRegistry().get(mode);
    }
    if (spec.set_sample_period != 0 &&
        !isPowerOfTwo(spec.set_sample_period)) {
        COOPSIM_FATAL("set_sample_period ", spec.set_sample_period,
                      " must be a power of two (or 0 for the default)");
    }
    scaleRegistry().get(spec.scale);
    for (const std::string &app : resolveSolos(spec)) {
        trace::specProfile(app); // fatal on an unknown benchmark
    }
    if (!spec.groups.empty() && groups.empty()) {
        COOPSIM_FATAL("the cores filter leaves no workload group (the "
                      "groups axis resolves to none of the listed "
                      "core counts)");
    }
    if (spec.layout == "schemes" && !spec.schemes.empty()) {
        bool found = false;
        for (const std::string &scheme : spec.schemes) {
            found = found || scheme == spec.baseline;
        }
        if (!found) {
            COOPSIM_FATAL("baseline scheme '", spec.baseline,
                          "' is not in the spec's schemes axis");
        }
    }
    if (spec.layout == "thresholds") {
        const double baseline =
            parseDouble(spec.baseline, "baseline threshold");
        bool found = false;
        for (const double t : spec.thresholds) {
            found = found || t == baseline;
        }
        if (!found) {
            COOPSIM_FATAL("baseline threshold ", spec.baseline,
                          " is not in the spec's thresholds axis");
        }
    }
    if (spec.layout == "partitioners") {
        bool found = false;
        for (const std::string &partitioner : spec.partitioners) {
            found = found || partitioner == spec.baseline;
        }
        if (!found) {
            COOPSIM_FATAL("baseline partitioner '", spec.baseline,
                          "' is not in the spec's partitioners axis");
        }
    }
    if ((spec.layout == "transfers" || spec.layout == "bandwidth") &&
        spec.schemes.size() < 2) {
        COOPSIM_FATAL("layout '", spec.layout,
                      "' compares the first two schemes; the spec "
                      "names ", spec.schemes.size());
    }
    if (spec.layout == "takeover" && spec.schemes.empty()) {
        COOPSIM_FATAL("layout 'takeover' needs a scheme");
    }
    return groups;
}

} // namespace

void
validateSpec(const ExperimentSpec &spec)
{
    checkSpec(spec);
}

std::vector<trace::WorkloadGroup>
resolveSpecGroups(const ExperimentSpec &spec)
{
    std::vector<trace::WorkloadGroup> groups;
    for (const std::string &pattern : spec.groups) {
        for (trace::WorkloadGroup &group : resolveWorkloads(pattern)) {
            if (!spec.cores.empty()) {
                const auto size =
                    static_cast<std::uint32_t>(group.apps.size());
                bool keep = false;
                for (const std::uint32_t cores : spec.cores) {
                    keep = keep || cores == size;
                }
                if (!keep) {
                    continue;
                }
            }
            groups.push_back(std::move(group));
        }
    }
    return groups;
}

sim::RunKey
groupRunKey(const ExperimentSpec &spec, const trace::WorkloadGroup &group,
            const Cell &cell)
{
    sim::RunKey key;
    key.kind = sim::RunKey::Kind::Group;
    key.scheme = orFirst(cell.scheme, spec.schemes, "scheme");
    key.name = group.name;
    key.num_cores = static_cast<std::uint32_t>(group.apps.size());
    key.scale = scaleRegistry().get(spec.scale);
    key.threshold = orFirst(cell.threshold, spec.thresholds, "threshold");
    key.threshold_mode = thresholdModeRegistry().get(orFirst(
        cell.threshold_mode, spec.threshold_modes, "threshold mode"));
    key.partitioner = partitionerRegistry().get(
        orFirst(cell.partitioner, spec.partitioners, "partitioner"));
    key.repl = replPolicyRegistry().get(
        orFirst(cell.repl, spec.repl, "replacement policy"));
    key.gating = gatingModeRegistry().get(
        orFirst(cell.gating, spec.gating, "gating mode"));
    key.seed = orFirst(cell.seed, spec.seeds, "seed");
    key.banks = orFirst(cell.banks, spec.banks, "banks");
    key.slice_hash = sliceHashRegistry().get(
        orFirst(cell.slice_hash, spec.slice_hashes, "slice hash"));
    setSampling(spec, cell, key);
    return key;
}

sim::RunKey
soloRunKey(const ExperimentSpec &spec, const std::string &app,
           std::uint32_t cores, const Cell &cell)
{
    sim::RunKey key;
    key.kind = sim::RunKey::Kind::Solo;
    key.scheme = "unmanaged";
    key.name = app;
    key.num_cores = cores;
    key.scale = scaleRegistry().get(spec.scale);
    // Scheme-only fields and banking: fixed, whatever the cell says.
    key.threshold = 0.0;
    key.threshold_mode = partition::ThresholdMode::MissRatio;
    key.partitioner = partition::Partitioner::Lookahead;
    key.gating = llc::GatingMode::GatedVdd;
    key.banks = 0;
    key.slice_hash = llc::SliceHashKind::Mod;
    // Inherited from the cell.
    key.repl = replPolicyRegistry().get(
        orFirst(cell.repl, spec.repl, "replacement policy"));
    key.seed = orFirst(cell.seed, spec.seeds, "seed");
    setSampling(spec, cell, key);
    return key;
}

std::vector<sim::RunKey>
expandSpec(const ExperimentSpec &spec)
{
    const std::vector<trace::WorkloadGroup> groups = checkSpec(spec);

    // Every group row runs the same cells: the cross-product of the
    // other axes, seeds varying fastest.
    std::vector<Cell> cells;
    Cell cell;
    for (const std::string &scheme : spec.schemes) {
      cell.scheme = scheme;
      for (const double threshold : spec.thresholds) {
        cell.threshold = threshold;
        for (const std::string &tmode : spec.threshold_modes) {
          cell.threshold_mode = tmode;
          for (const std::string &partitioner : spec.partitioners) {
            cell.partitioner = partitioner;
            for (const std::string &policy : spec.repl) {
              cell.repl = policy;
              for (const std::string &gating : spec.gating) {
                cell.gating = gating;
                for (const std::uint32_t banks : spec.banks) {
                  cell.banks = banks;
                  for (const std::string &hash : spec.slice_hashes) {
                    cell.slice_hash = hash;
                    for (const std::string &samp : spec.sampling) {
                      cell.sampling = samp;
                      for (const std::uint64_t seed : spec.seeds) {
                        cell.seed = seed;
                        cells.push_back(cell);
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }

    // Group runs first, groups outermost so all cells of one table row
    // are adjacent in the queue.
    std::vector<sim::RunKey> keys;
    keys.reserve(groups.size() * cells.size());
    for (const trace::WorkloadGroup &group : groups) {
        for (const Cell &group_cell : cells) {
            keys.push_back(groupRunKey(spec, group, group_cell));
        }
    }

    // Solo baselines vary only over the axes a solo inherits (repl x
    // sampling x seed); shared apps across groups are deduplicated.
    std::vector<Cell> solo_cells;
    Cell solo;
    for (const std::string &policy : spec.repl) {
        solo.repl = policy;
        for (const std::string &samp : spec.sampling) {
            solo.sampling = samp;
            for (const std::uint64_t seed : spec.seeds) {
                solo.seed = seed;
                solo_cells.push_back(solo);
            }
        }
    }
    std::unordered_set<sim::RunKey, sim::RunKeyHash> seen;
    auto add_solo = [&](const std::string &app, std::uint32_t cores) {
        for (const Cell &solo_cell : solo_cells) {
            sim::RunKey key = soloRunKey(spec, app, cores, solo_cell);
            if (seen.insert(key).second) {
                keys.push_back(std::move(key));
            }
        }
    };
    if (spec.with_solo) {
        for (const trace::WorkloadGroup &group : groups) {
            const auto cores =
                static_cast<std::uint32_t>(group.apps.size());
            for (const std::string &app : group.apps) {
                add_solo(app, cores);
            }
        }
    }
    for (const std::string &app : resolveSolos(spec)) {
        add_solo(app, spec.solo_cores);
    }
    return keys;
}

std::vector<sim::RunKey>
shardKeys(const std::vector<sim::RunKey> &keys, unsigned index,
          unsigned count)
{
    if (count < 1) {
        COOPSIM_FATAL("shard count must be at least 1");
    }
    if (index >= count) {
        COOPSIM_FATAL("shard index ", index, " out of range for ",
                      count, " shards (need 0 <= I < N)");
    }
    std::vector<sim::RunKey> slice;
    slice.reserve(keys.size() / count + 1);
    for (std::size_t i = index; i < keys.size(); i += count) {
        slice.push_back(keys[i]);
    }
    return slice;
}

// ---------------------------------------------------------------------------
// Canonical text encoding

std::string
formatSpec(const ExperimentSpec &spec)
{
    std::string out = kSpecMagic;
    out += "\n";
    auto line = [&out](const char *key, const std::string &value) {
        out += key;
        if (!value.empty()) {
            out += " ";
            out += value;
        }
        out += "\n";
    };
    line("name", spec.name);
    line("title", spec.title);
    line("layout", spec.layout);
    line("metric", spec.metric);
    line("baseline", spec.baseline);
    line("higher_better", spec.higher_better ? "on" : "off");
    line("with_solo", spec.with_solo ? "on" : "off");
    line("schemes", joinWords(spec.schemes));
    line("groups", joinWords(spec.groups));
    {
        std::vector<std::string> words;
        for (const std::uint32_t cores : spec.cores) {
            words.push_back(std::to_string(cores));
        }
        line("cores", joinWords(words));
    }
    {
        std::vector<std::string> words;
        for (const double t : spec.thresholds) {
            words.push_back(fmtDouble(t));
        }
        line("thresholds", joinWords(words));
    }
    line("threshold_modes", joinWords(spec.threshold_modes));
    line("partitioners", joinWords(spec.partitioners));
    line("repl", joinWords(spec.repl));
    line("gating", joinWords(spec.gating));
    {
        std::vector<std::string> words;
        for (const std::uint64_t seed : spec.seeds) {
            words.push_back(std::to_string(seed));
        }
        line("seeds", joinWords(words));
    }
    {
        std::vector<std::string> words;
        for (const std::uint32_t banks : spec.banks) {
            words.push_back(std::to_string(banks));
        }
        line("banks", joinWords(words));
    }
    line("slice_hashes", joinWords(spec.slice_hashes));
    line("sampling", joinWords(spec.sampling));
    line("set_sample_period", std::to_string(spec.set_sample_period));
    line("op_sample_windows", std::to_string(spec.op_sample_windows));
    line("scale", spec.scale);
    line("solos", joinWords(spec.solos));
    line("solo_cores", std::to_string(spec.solo_cores));
    return out;
}

ExperimentSpec
parseSpec(const std::string &text)
{
    std::istringstream stream(text);
    std::string line;
    if (!std::getline(stream, line) || line != kSpecMagic) {
        COOPSIM_FATAL("not a coopsim spec (expected first line '",
                      kSpecMagic, "', got '", line, "')");
    }

    ExperimentSpec spec;
    // The defaulted axes are replaced, not appended to, when the key
    // appears.
    while (std::getline(stream, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const std::size_t space = line.find(' ');
        const std::string key = line.substr(0, space);
        const std::string value =
            space == std::string::npos ? "" : line.substr(space + 1);

        if (key == "name") {
            spec.name = value;
        } else if (key == "title") {
            spec.title = value;
        } else if (key == "layout") {
            spec.layout = value;
        } else if (key == "metric") {
            spec.metric = value;
        } else if (key == "baseline") {
            spec.baseline = value;
        } else if (key == "higher_better") {
            spec.higher_better = parseBool(value, "higher_better");
        } else if (key == "with_solo") {
            spec.with_solo = parseBool(value, "with_solo");
        } else if (key == "schemes") {
            spec.schemes = splitWords(value);
        } else if (key == "groups") {
            spec.groups = splitWords(value);
        } else if (key == "cores") {
            spec.cores.clear();
            for (const std::string &word : splitWords(value)) {
                spec.cores.push_back(parseUint32(word, "cores"));
            }
        } else if (key == "thresholds") {
            spec.thresholds.clear();
            for (const std::string &word : splitWords(value)) {
                spec.thresholds.push_back(
                    parseDouble(word, "threshold"));
            }
        } else if (key == "threshold_modes") {
            spec.threshold_modes = splitWords(value);
        } else if (key == "partitioners") {
            spec.partitioners = splitWords(value);
        } else if (key == "repl") {
            spec.repl = splitWords(value);
        } else if (key == "gating") {
            spec.gating = splitWords(value);
        } else if (key == "seeds") {
            spec.seeds.clear();
            for (const std::string &word : splitWords(value)) {
                spec.seeds.push_back(parseUint(word, "seed"));
            }
        } else if (key == "banks") {
            spec.banks.clear();
            for (const std::string &word : splitWords(value)) {
                spec.banks.push_back(parseUint32(word, "banks"));
            }
        } else if (key == "slice_hashes") {
            spec.slice_hashes = splitWords(value);
        } else if (key == "sampling") {
            spec.sampling = splitWords(value);
        } else if (key == "set_sample_period") {
            spec.set_sample_period =
                parseUint32(value, "set_sample_period");
        } else if (key == "op_sample_windows") {
            spec.op_sample_windows =
                parseUint32(value, "op_sample_windows");
        } else if (key == "scale") {
            spec.scale = value;
        } else if (key == "solos") {
            spec.solos = splitWords(value);
        } else if (key == "solo_cores") {
            spec.solo_cores = parseUint32(value, "solo_cores");
        } else {
            COOPSIM_FATAL("unknown spec key '", key, "'");
        }
    }
    return spec;
}

ExperimentSpec
parseSpecFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file) {
        COOPSIM_FATAL("cannot open spec file '", path, "'");
    }
    std::ostringstream text;
    text << file.rdbuf();
    return parseSpec(text.str());
}

std::string
formatRunKey(const sim::RunKey &key)
{
    std::string out =
        key.kind == sim::RunKey::Kind::Group ? "group" : "solo";
    auto field = [&out](const char *name, const std::string &value) {
        out += " ";
        out += name;
        out += "=";
        out += value;
    };
    field("scheme", key.scheme);
    field("name", key.name);
    field("cores", std::to_string(key.num_cores));
    field("scale", scaleKeyOf(key.scale));
    field("threshold", fmtDouble(key.threshold));
    field("tmode", thresholdModeKeyOf(key.threshold_mode));
    field("partitioner", partitionerKeyOf(key.partitioner));
    field("repl", replPolicyKeyOf(key.repl));
    field("gating", gatingModeKeyOf(key.gating));
    field("seed", std::to_string(key.seed));
    // Banking fields are appended only when non-default so every
    // pre-banking key line (and store entry) stays byte-stable.
    if (key.banks != 0 ||
        key.slice_hash != llc::SliceHashKind::Mod) {
        field("banks", std::to_string(key.banks));
        field("slice-hash", sliceHashKeyOf(key.slice_hash));
    }
    // Sampling fields follow the same rule: exact keys (the default)
    // carry none, so every pre-sampling key line stays byte-stable.
    if (key.sampling != sampling::Mode::Exact) {
        field("sampling", samplingKeyOf(key.sampling));
        field("sample-period", std::to_string(key.set_sample_period));
        field("op-windows", std::to_string(key.op_sample_windows));
    }
    return out;
}

bool
tryParseRunKey(const std::string &line, sim::RunKey &out)
{
    const std::vector<std::string> words = splitWords(line);
    if (words.empty() ||
        (words[0] != "group" && words[0] != "solo")) {
        return false;
    }
    sim::RunKey key;
    key.kind = words[0] == "group" ? sim::RunKey::Kind::Group
                                   : sim::RunKey::Kind::Solo;
    for (std::size_t i = 1; i < words.size(); ++i) {
        const std::size_t eq = words[i].find('=');
        if (eq == std::string::npos) {
            return false;
        }
        const std::string name = words[i].substr(0, eq);
        const std::string value = words[i].substr(eq + 1);
        if (name == "scheme") {
            if (!schemeRegistry().contains(value)) {
                return false;
            }
            key.scheme = value;
        } else if (name == "name") {
            key.name = value;
        } else if (name == "cores") {
            if (!detail::tryParseUint32(value, key.num_cores)) {
                return false;
            }
        } else if (name == "scale") {
            const sim::RunScale *scale = scaleRegistry().find(value);
            if (scale == nullptr) {
                return false;
            }
            key.scale = *scale;
        } else if (name == "threshold") {
            if (!detail::tryParseDouble(value, key.threshold)) {
                return false;
            }
        } else if (name == "tmode") {
            const partition::ThresholdMode *mode =
                thresholdModeRegistry().find(value);
            if (mode == nullptr) {
                return false;
            }
            key.threshold_mode = *mode;
        } else if (name == "partitioner") {
            const partition::Partitioner *partitioner =
                partitionerRegistry().find(value);
            if (partitioner == nullptr) {
                return false;
            }
            key.partitioner = *partitioner;
        } else if (name == "repl") {
            const cache::ReplPolicy *repl =
                replPolicyRegistry().find(value);
            if (repl == nullptr) {
                return false;
            }
            key.repl = *repl;
        } else if (name == "gating") {
            const llc::GatingMode *gating =
                gatingModeRegistry().find(value);
            if (gating == nullptr) {
                return false;
            }
            key.gating = *gating;
        } else if (name == "seed") {
            if (!detail::tryParseUint(value, key.seed)) {
                return false;
            }
        } else if (name == "banks") {
            if (!detail::tryParseUint32(value, key.banks)) {
                return false;
            }
        } else if (name == "slice-hash") {
            const llc::SliceHashKind *hash =
                sliceHashRegistry().find(value);
            if (hash == nullptr) {
                return false;
            }
            key.slice_hash = *hash;
        } else if (name == "sampling") {
            const sampling::Mode *mode = samplingRegistry().find(value);
            if (mode == nullptr) {
                return false;
            }
            key.sampling = *mode;
        } else if (name == "sample-period") {
            if (!detail::tryParseUint32(value, key.set_sample_period)) {
                return false;
            }
        } else if (name == "op-windows") {
            if (!detail::tryParseUint32(value, key.op_sample_windows)) {
                return false;
            }
        } else {
            return false;
        }
    }
    out = std::move(key);
    return true;
}

sim::RunKey
parseRunKey(const std::string &line)
{
    sim::RunKey key;
    if (!tryParseRunKey(line, key)) {
        COOPSIM_FATAL("invalid run key line '", line, "'");
    }
    return key;
}

} // namespace coopsim::api
