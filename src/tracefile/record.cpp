#include "tracefile/record.hpp"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "api/registry.hpp"
#include "common/logging.hpp"
#include "sim/executor.hpp"
#include "sim/stream_cache.hpp"
#include "sim/system.hpp"
#include "store/result_store.hpp"
#include "tracefile/trace_workloads.hpp"

namespace coopsim::tracefile
{

namespace
{

/** The spec's Group keys for @p group_name, in expansion order. */
std::vector<sim::RunKey>
groupKeysOf(const std::vector<sim::RunKey> &keys,
            const std::string &group_name)
{
    std::vector<sim::RunKey> out;
    for (const sim::RunKey &key : keys) {
        if (key.kind == sim::RunKey::Kind::Group &&
            key.name == group_name) {
            out.push_back(key);
        }
    }
    return out;
}

/** Forwards a stream's ops and counts them: pass 1 learns each
 *  core's deepest consumption through it. */
class CountingStream final : public core::OpStream
{
  public:
    explicit CountingStream(std::unique_ptr<core::OpStream> inner)
        : inner_(std::move(inner))
    {
    }

    std::size_t
    nextBatch(core::MemOp *out, std::size_t max) override
    {
        const std::size_t got = inner_->nextBatch(out, max);
        delivered_ += got;
        return got;
    }

    std::uint64_t delivered() const { return delivered_; }

  private:
    std::unique_ptr<core::OpStream> inner_;
    std::uint64_t delivered_ = 0;
};

/**
 * The memoized stream both recording passes read, --no-stream-memo or
 * not: the generator runs once per distinct stream — pass 1's
 * counting runs replay it for every configuration and pass 2 replays
 * it a final time into the file.
 */
std::unique_ptr<core::OpStream>
openMemo(std::uint32_t c, const trace::AppProfile &profile,
         const trace::StreamGeometry &geometry, std::uint64_t seed,
         std::uint64_t run_seed, const std::string &scale)
{
    sim::StreamCache::Key key;
    key.workload = profile.name;
    key.slot = c;
    key.seed = run_seed;
    key.scale = scale;
    key.geometry = geometry;
    return sim::StreamCache::instance().open(key, profile, seed);
}

} // namespace

std::size_t
recordSpec(const api::ExperimentSpec &spec, const std::string &dir)
{
    api::validateSpec(spec);
    if (spec.seeds.size() != 1) {
        COOPSIM_FATAL("--record needs a spec with exactly one seed "
                      "(a trace pins the generator seed); this spec "
                      "sweeps ", spec.seeds.size());
    }
    const std::vector<trace::WorkloadGroup> groups =
        api::resolveSpecGroups(spec);
    for (const trace::WorkloadGroup &group : groups) {
        if (isTraceWorkload(group.name)) {
            COOPSIM_FATAL("--record on the trace workload '", group.name,
                          "': replays cannot be re-recorded — record "
                          "from the synthetic group instead");
        }
    }

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        COOPSIM_FATAL("cannot create trace directory '", dir,
                      "': ", ec.message());
    }

    const std::vector<sim::RunKey> all_keys = api::expandSpec(spec);
    std::size_t files_written = 0;

    for (const trace::WorkloadGroup &group : groups) {
        const std::vector<sim::RunKey> keys =
            groupKeysOf(all_keys, group.name);
        if (keys.empty()) {
            continue; // filtered out by the cores= axis
        }
        const auto num_cores =
            static_cast<std::uint32_t>(group.apps.size());

        // Pass 1: run every configuration of this group with a
        // counting tee to learn the deepest per-core consumption the
        // spec's cross-product reaches.
        std::vector<std::uint64_t> deepest(num_cores, 0);
        for (const sim::RunKey &key : keys) {
            sim::SystemConfig config = sim::runConfig(key);
            std::vector<CountingStream *> counters(num_cores, nullptr);
            config.stream_factory =
                [&counters, &config, &spec](
                    std::uint32_t c, const trace::AppProfile &profile,
                    const trace::StreamGeometry &geometry,
                    std::uint64_t seed)
                -> std::unique_ptr<core::OpStream> {
                auto tee = std::make_unique<CountingStream>(openMemo(
                    c, profile, geometry, seed, config.seed, spec.scale));
                counters[c] = tee.get();
                return tee;
            };
            sim::System system(config, trace::groupProfiles(group));
            system.run();
            for (std::uint32_t c = 0; c < num_cores; ++c) {
                deepest[c] =
                    std::max(deepest[c], counters[c]->delivered());
            }
        }

        // Pass 2: replay each core's stream from the start into its
        // file, with 25% (min one frame) of headroom so small
        // consumption differences — a new scheme, another partitioner
        // — replay from the same files instead of dying at the tail.
        sim::SystemConfig config = sim::runConfig(keys.front());
        std::vector<TraceHeader> headers(num_cores);
        std::vector<core::OpStream *> streams(num_cores, nullptr);
        config.stream_factory =
            [&](std::uint32_t c, const trace::AppProfile &profile,
                const trace::StreamGeometry &geometry, std::uint64_t seed)
            -> std::unique_ptr<core::OpStream> {
            TraceHeader &header = headers[c];
            header.core = c;
            header.num_cores = num_cores;
            header.seed = config.seed;
            header.llc_sets = geometry.llc_sets;
            header.block_bytes = geometry.block_bytes;
            header.workload = group.name;
            header.app = profile.name;
            header.scale = spec.scale;
            auto stream = openMemo(c, profile, geometry, seed, config.seed,
                                   spec.scale);
            streams[c] = stream.get();
            return stream;
        };
        // The System constructor is the stream builder here — it owns
        // the profile phase rescaling and geometry handshake — but the
        // system is never run: the recording just drains each stream.
        sim::System system(config, trace::groupProfiles(group));
        for (std::uint32_t c = 0; c < num_cores; ++c) {
            const std::uint64_t margin = std::max<std::uint64_t>(
                deepest[c] / 4, kFrameOps);
            const std::string image =
                encodeTrace(headers[c], *streams[c], deepest[c] + margin);
            const std::string path =
                (std::filesystem::path(dir) / traceFileName(group.name, c))
                    .string();
            std::string error;
            if (!store::writeFileDurably(path, image, error)) {
                COOPSIM_FATAL("--record: ", error);
            }
            ++files_written;
        }
        COOPSIM_INFORM("recorded '", group.name, "' (", num_cores,
                       " cores, ", keys.size(), " configuration(s), ",
                       "deepest ", *std::max_element(deepest.begin(),
                                                     deepest.end()),
                       " ops)");
    }
    return files_written;
}

} // namespace coopsim::tracefile
