/**
 * @file
 * Writing `.cooptrace` files: TraceWriter frames and flushes one
 * core's op sequence, RecordingStream tees an existing OpStream
 * through a writer (or just counts, for the sizing pass).
 *
 * The writer uses the store's write-tmp + fsync + rename idiom
 * (store/result_store.cpp): a crashed recording leaves at most a
 * `.tmp` orphan, never a truncated `.cooptrace` that replay would
 * then have to reject.
 */

#ifndef COOPSIM_TRACEFILE_TRACE_WRITER_HPP
#define COOPSIM_TRACEFILE_TRACE_WRITER_HPP

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/op_stream.hpp"
#include "tracefile/trace_format.hpp"

namespace coopsim::tracefile
{

/**
 * Streams one core's MemOps into a `.cooptrace` file, framing every
 * kFrameOps ops. Fatal on any I/O error: a recording that cannot be
 * persisted completely is worthless.
 */
class TraceWriter
{
  public:
    /** Opens `<path>.tmp` and writes the header immediately. */
    TraceWriter(std::string path, const TraceHeader &header);

    /** Removes the `.tmp` orphan if finish() was never reached. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const core::MemOp &op);

    /** Flushes the tail frame, fsyncs, and renames tmp into place. */
    void finish();

    std::uint64_t written() const { return written_; }
    const std::string &path() const { return path_; }

  private:
    void flushFrame();

    std::string path_;
    std::string tmp_path_;
    std::FILE *file_ = nullptr;
    std::vector<core::MemOp> pending_;
    /** Encoding buffer, reused frame after frame. */
    std::string frame_;
    std::uint64_t written_ = 0;
    bool finished_ = false;
};

/**
 * An OpStream wrapper that forwards another stream's ops while
 * recording them. With a null writer it only counts — the record
 * pass uses that mode first to size each core's trace, then a second
 * pass with real writers captures exactly what replay will need.
 */
class RecordingStream final : public core::OpStream
{
  public:
    RecordingStream(std::unique_ptr<core::OpStream> inner,
                    std::unique_ptr<TraceWriter> writer);
    ~RecordingStream() override;

    core::MemOp next() override;
    std::size_t nextBatch(core::MemOp *out, std::size_t max) override;

    /** Pulls the inner stream until at least @p target ops flowed. */
    void extendTo(std::uint64_t target);

    /** Finalises the underlying writer (no-op in counting mode). */
    void finish();

    std::uint64_t delivered() const { return delivered_; }

  private:
    std::unique_ptr<core::OpStream> inner_;
    std::unique_ptr<TraceWriter> writer_;
    std::uint64_t delivered_ = 0;
};

} // namespace coopsim::tracefile

#endif // COOPSIM_TRACEFILE_TRACE_WRITER_HPP
