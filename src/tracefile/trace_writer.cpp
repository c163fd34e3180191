#include "tracefile/trace_writer.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/logging.hpp"

namespace coopsim::tracefile
{

TraceWriter::TraceWriter(std::string path, const TraceHeader &header)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp")
{
    file_ = std::fopen(tmp_path_.c_str(), "wb");
    if (!file_)
        COOPSIM_FATAL("cannot open '", tmp_path_,
                      "' for writing: ", std::strerror(errno));
    const std::string encoded = encodeHeader(header);
    if (std::fwrite(encoded.data(), 1, encoded.size(), file_) !=
        encoded.size())
        COOPSIM_FATAL("short write of trace header to '", tmp_path_, "'");
    pending_.reserve(kFrameOps);
}

TraceWriter::~TraceWriter()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    if (!finished_)
        std::remove(tmp_path_.c_str());
}

void
TraceWriter::append(const core::MemOp &op)
{
    COOPSIM_ASSERT(!finished_, "append after finish on '", path_, "'");
    pending_.push_back(op);
    ++written_;
    if (pending_.size() >= kFrameOps)
        flushFrame();
}

void
TraceWriter::flushFrame()
{
    if (pending_.empty())
        return;
    encodeFrame(pending_.data(), pending_.size(), frame_);
    if (std::fwrite(frame_.data(), 1, frame_.size(), file_) != frame_.size())
        COOPSIM_FATAL("short write of trace frame to '", tmp_path_, "'");
    pending_.clear();
}

void
TraceWriter::finish()
{
    COOPSIM_ASSERT(!finished_, "double finish on '", path_, "'");
    flushFrame();
    if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0)
        COOPSIM_FATAL("cannot flush trace file '", tmp_path_,
                      "': ", std::strerror(errno));
    std::fclose(file_);
    file_ = nullptr;
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0)
        COOPSIM_FATAL("cannot rename '", tmp_path_, "' to '", path_,
                      "': ", std::strerror(errno));
    finished_ = true;
}

// ---------------------------------------------------------------------------

RecordingStream::RecordingStream(std::unique_ptr<core::OpStream> inner,
                                 std::unique_ptr<TraceWriter> writer)
    : inner_(std::move(inner)), writer_(std::move(writer))
{
}

RecordingStream::~RecordingStream() = default;

core::MemOp
RecordingStream::next()
{
    const core::MemOp op = inner_->next();
    if (writer_)
        writer_->append(op);
    ++delivered_;
    return op;
}

std::size_t
RecordingStream::nextBatch(core::MemOp *out, std::size_t max)
{
    const std::size_t got = inner_->nextBatch(out, max);
    if (writer_)
        for (std::size_t i = 0; i < got; ++i)
            writer_->append(out[i]);
    delivered_ += got;
    return got;
}

void
RecordingStream::extendTo(std::uint64_t target)
{
    core::MemOp buf[64];
    while (delivered_ < target) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(64, target - delivered_));
        nextBatch(buf, want);
    }
}

void
RecordingStream::finish()
{
    if (writer_)
        writer_->finish();
}

} // namespace coopsim::tracefile
