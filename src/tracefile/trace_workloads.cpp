#include "tracefile/trace_workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <vector>

#include "api/registry.hpp"
#include "common/logging.hpp"
#include "sim/stream_cache.hpp"

namespace coopsim::tracefile
{

namespace
{

namespace fs = std::filesystem;

/** One registered trace workload: per-core files and their headers. */
struct TraceSet
{
    std::vector<std::string> paths;   // indexed by core
    std::vector<TraceHeader> headers; // indexed by core
};

struct TraceTable
{
    std::map<std::string, TraceSet> sets; // keyed by "trace:<workload>"
    std::set<std::string> scanned_dirs;
};

TraceTable &
table()
{
    static TraceTable t;
    return t;
}

/**
 * Reads just the header of @p path (the header is tiny; only the
 * first few hundred bytes are fetched). False with a reason on any
 * open/format problem — the scan warns and skips, never dies.
 */
bool
tryReadHeader(const std::string &path, TraceHeader &out, std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open";
        return false;
    }
    char buf[4096];
    std::string data(buf, std::fread(buf, 1, sizeof(buf), f));
    std::fclose(f);
    data.append(kDecodeSlack, '\0');
    std::size_t pos = 0;
    return decodeHeader(data, pos, out, error);
}

/**
 * Splits a `<workload>.<core>.cooptrace` filename. False when the
 * name does not have that shape.
 */
bool
parseTraceFileName(const std::string &filename, std::string &workload,
                   std::uint32_t &core)
{
    const std::string ext = kTraceExtension;
    if (filename.size() <= ext.size() ||
        filename.compare(filename.size() - ext.size(), ext.size(), ext) !=
            0) {
        return false;
    }
    const std::string stem =
        filename.substr(0, filename.size() - ext.size());
    const std::size_t dot = stem.rfind('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 >= stem.size()) {
        return false;
    }
    const std::string core_str = stem.substr(dot + 1);
    char *end = nullptr;
    const unsigned long n = std::strtoul(core_str.c_str(), &end, 10);
    if (end == core_str.c_str() || *end != '\0' || n > 0xffffffffull) {
        return false;
    }
    workload = stem.substr(0, dot);
    core = static_cast<std::uint32_t>(n);
    return true;
}

const TraceSet &
setOf(const std::string &name)
{
    const auto it = table().sets.find(name);
    if (it == table().sets.end()) {
        COOPSIM_FATAL("unknown trace workload '", name,
                      "' (was its directory registered via --trace-dir?)");
    }
    return it->second;
}

} // namespace

bool
isTraceWorkload(const std::string &name)
{
    return name.rfind(kTracePrefix, 0) == 0;
}

std::string
traceFileName(const std::string &workload, std::uint32_t core)
{
    return workload + "." + std::to_string(core) + kTraceExtension;
}

std::size_t
registerTraceDir(const std::string &dir)
{
    if (!table().scanned_dirs.insert(fs::absolute(dir).string()).second) {
        return 0; // already scanned
    }
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
        COOPSIM_FATAL("cannot read trace directory '", dir,
                      "': ", ec.message());
    }

    // Collect candidate files per workload first, then validate each
    // set as a whole.
    struct Candidate
    {
        std::map<std::uint32_t, std::string> files; // core -> path
    };
    std::map<std::string, Candidate> candidates;
    for (const fs::directory_entry &entry : it) {
        if (!entry.is_regular_file()) {
            continue;
        }
        std::string workload;
        std::uint32_t core = 0;
        if (!parseTraceFileName(entry.path().filename().string(), workload,
                                core)) {
            continue;
        }
        candidates[workload].files[core] = entry.path().string();
    }

    std::size_t registered = 0;
    for (auto &[workload, candidate] : candidates) {
        const std::string name = kTracePrefix + workload;
        if (table().sets.count(name) != 0) {
            COOPSIM_WARN("trace workload '", name,
                         "' already registered from another directory; "
                         "skipping the copy in '", dir, "'");
            continue;
        }

        TraceSet set;
        bool ok = true;
        for (const auto &[core, path] : candidate.files) {
            TraceHeader header;
            std::string error;
            if (!tryReadHeader(path, header, error)) {
                COOPSIM_WARN("skipping trace workload '", workload, "': '",
                             path, "': ", error);
                ok = false;
                break;
            }
            if (header.core != core) {
                COOPSIM_WARN("skipping trace workload '", workload, "': '",
                             path, "' claims core ", header.core,
                             " but is named for core ", core);
                ok = false;
                break;
            }
            if (header.workload != workload) {
                COOPSIM_WARN("skipping trace workload '", workload, "': '",
                             path, "' was recorded for workload '",
                             header.workload, "'");
                ok = false;
                break;
            }
            set.paths.push_back(path);
            set.headers.push_back(header);
        }
        if (!ok) {
            continue;
        }
        const std::uint32_t num_cores = set.headers.front().num_cores;
        if (set.headers.size() != num_cores) {
            COOPSIM_WARN("skipping trace workload '", workload, "': found ",
                         set.headers.size(), " core file(s), header says ",
                         num_cores, " cores were recorded");
            continue;
        }
        bool consistent = true;
        for (std::size_t i = 0; i < set.headers.size(); ++i) {
            // Map iteration gave ascending core order; equality with
            // the slot index makes the set exactly cores 0..n-1.
            consistent =
                consistent &&
                set.headers[i].core == static_cast<std::uint32_t>(i);
        }
        if (!consistent) {
            COOPSIM_WARN("skipping trace workload '", workload,
                         "': core files are not a contiguous 0..",
                         num_cores - 1, " set");
            continue;
        }
        for (const TraceHeader &h : set.headers) {
            consistent = consistent && h.num_cores == num_cores &&
                         h.seed == set.headers.front().seed &&
                         h.scale == set.headers.front().scale &&
                         h.llc_sets == set.headers.front().llc_sets &&
                         h.block_bytes == set.headers.front().block_bytes;
        }
        if (!consistent) {
            COOPSIM_WARN("skipping trace workload '", workload,
                         "': its core files disagree about the recorded "
                         "seed, scale, core count or geometry");
            continue;
        }

        trace::WorkloadGroup group;
        group.name = name;
        for (const TraceHeader &h : set.headers) {
            group.apps.push_back(h.app);
        }
        api::registerWorkload(group);
        table().sets.emplace(name, std::move(set));
        ++registered;
    }
    return registered;
}

const std::string &
traceFilePath(const std::string &name, std::uint32_t core)
{
    const TraceSet &set = setOf(name);
    COOPSIM_ASSERT(core < set.paths.size(), "trace workload '", name,
                   "' has no core ", core);
    return set.paths[core];
}

const TraceHeader &
traceHeaderOf(const std::string &name, std::uint32_t core)
{
    const TraceSet &set = setOf(name);
    COOPSIM_ASSERT(core < set.headers.size(), "trace workload '", name,
                   "' has no core ", core);
    return set.headers[core];
}

sim::StreamFactory
replayFactory(const std::string &name, std::uint64_t run_seed,
              sim::RunScale scale)
{
    // Resolve (and fatal on an unknown name) now, at run-construction
    // time, not from inside a worker thread mid-sweep.
    const TraceSet &set = setOf(name);
    const std::string scale_key = api::scaleKeyOf(scale);
    return [name, run_seed, scale_key,
            &set](std::uint32_t c, const trace::AppProfile &profile,
                  const trace::StreamGeometry &geometry,
                  std::uint64_t stream_seed)
               -> std::unique_ptr<core::OpStream> {
        COOPSIM_ASSERT(c < set.paths.size(), "trace workload '", name,
                       "' has no core ", c);
        const TraceHeader &header = set.headers[c];
        if (header.seed + c * 7919 != stream_seed) {
            COOPSIM_FATAL("trace workload '", name, "' core ", c,
                          " was recorded with seed ", header.seed,
                          " but this run uses seed ", run_seed,
                          "; re-record or set seeds=", header.seed);
        }
        if (header.scale != scale_key) {
            COOPSIM_FATAL("trace workload '", name, "' core ", c,
                          " was recorded at scale=", header.scale,
                          " but this run uses scale=", scale_key);
        }
        if (header.llc_sets != geometry.llc_sets ||
            header.block_bytes != geometry.block_bytes) {
            COOPSIM_FATAL(
                "trace workload '", name, "' core ", c,
                " was recorded for geometry ", header.llc_sets, "x",
                header.block_bytes, "B but this run uses ",
                geometry.llc_sets, "x", geometry.block_bytes,
                "B — the trace belongs to a different topology row");
        }
        if (header.app != profile.name) {
            COOPSIM_FATAL("trace workload '", name, "' core ", c,
                          " recorded app '", header.app,
                          "' but the registry resolved '", profile.name,
                          "'");
        }
        // Memoized replay, --no-stream-memo or not: the file is read
        // and validated once per process, however many runs of the
        // sweep replay it.
        sim::StreamCache::Key key;
        key.workload = name;
        key.slot = c;
        key.seed = run_seed;
        key.scale = scale_key;
        key.geometry = {header.llc_sets, header.block_bytes};
        return sim::StreamCache::instance().openTraceFile(
            key, set.paths[c], header);
    };
}

} // namespace coopsim::tracefile
