#include "store/result_store.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "api/parse_util.hpp"
#include "api/spec.hpp"
#include "common/logging.hpp"

namespace coopsim::store
{

using api::detail::fmtDouble;
using api::detail::splitWords;
using api::detail::tryParseDouble;
using api::detail::tryParseUint;

namespace
{

/** Splits on @p sep; the empty string yields no tokens (so an empty
 *  list round-trips), but "a;;b" yields an empty middle token, which
 *  the callers reject. */
std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> tokens;
    if (text.empty()) {
        return tokens;
    }
    std::size_t start = 0;
    for (;;) {
        const std::size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            tokens.push_back(text.substr(start));
            return tokens;
        }
        tokens.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Line checksums

namespace
{

/** The `\t#crc32=` trailer marker; '#' keeps pre-CRC parsers from
 *  mistaking the trailer for result fields. */
constexpr const char *kCrcMarker = "#crc32=";
constexpr std::size_t kCrcHexDigits = 8;

} // namespace

std::uint32_t
crc32(std::string_view data)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t n = 0; n < 256; ++n) {
            std::uint32_t c = n;
            for (int bit = 0; bit < 8; ++bit) {
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            }
            t[n] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xffffffffu;
    for (const char byte : data) {
        crc = table[(crc ^ static_cast<unsigned char>(byte)) & 0xffu] ^
              (crc >> 8);
    }
    return crc ^ 0xffffffffu;
}

bool
writeFileDurably(const std::string &path, std::string_view data,
                 std::string &error)
{
    const std::string tmp = path + ".tmp";
    int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        error = "cannot create '" + tmp + "': " + std::strerror(errno);
        return false;
    }
    const auto fail = [&](const char *step) {
        error = std::string(step) + " of '" + tmp +
                "' failed: " + std::strerror(errno);
        if (fd >= 0) {
            ::close(fd);
        }
        std::remove(tmp.c_str());
        return false;
    };
    for (std::size_t written = 0; written < data.size();) {
        const ssize_t n =
            ::write(fd, data.data() + written, data.size() - written);
        if (n < 0) {
            return fail("write");
        }
        written += static_cast<std::size_t>(n);
    }
    // fsync before rename: the rename must never publish a file whose
    // data is still only in the page cache — a power cut after an
    // unsynced rename is exactly the torn file this defends against.
    if (::fsync(fd) != 0) {
        return fail("fsync");
    }
    const int closed = ::close(fd);
    fd = -1;
    if (closed != 0) {
        return fail("close");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        // The synced temp file holds every byte; losing the rename
        // must not lose the data, so say exactly where it is.
        error = "cannot rename '" + tmp + "' over '" + path +
                "': " + std::strerror(errno) + " (data preserved in '" +
                tmp + "')";
        return false;
    }
    // Best-effort directory fsync so the rename itself is durable.
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    const int dir_fd = ::open(parent.empty() ? "." : parent.c_str(),
                              O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd >= 0) {
        ::fsync(dir_fd);
        ::close(dir_fd);
    }
    return true;
}

std::string
withCrcSuffix(const std::string &body)
{
    char hex[kCrcHexDigits + 1];
    std::snprintf(hex, sizeof(hex), "%08x", crc32(body));
    return body + "\t" + kCrcMarker + hex;
}

bool
splitCrcSuffix(const std::string &line, std::string &body)
{
    const std::size_t marker_len = std::strlen(kCrcMarker);
    const std::size_t suffix_len = 1 + marker_len + kCrcHexDigits;
    if (line.size() < suffix_len ||
        line[line.size() - suffix_len] != '\t' ||
        line.compare(line.size() - suffix_len + 1, marker_len,
                     kCrcMarker) != 0) {
        return false;
    }
    body = line.substr(0, line.size() - suffix_len);
    char hex[kCrcHexDigits + 1];
    std::snprintf(hex, sizeof(hex), "%08x", crc32(body));
    return line.compare(line.size() - kCrcHexDigits, kCrcHexDigits,
                        hex) == 0;
}

// ---------------------------------------------------------------------------
// RunResult line encoding

std::string
formatResult(const sim::RunResult &result)
{
    std::string out;
    auto field = [&out](const char *name, const std::string &value) {
        out += out.empty() ? "" : " ";
        out += name;
        out += "=";
        out += value;
    };
    auto u = [](std::uint64_t value) { return std::to_string(value); };

    field("cycles", u(result.total_cycles));
    field("dyn_nj", fmtDouble(result.dynamic_energy_nj));
    field("data_nj", fmtDouble(result.data_energy_nj));
    field("static_nj", fmtDouble(result.static_energy_nj));
    field("probed", fmtDouble(result.avg_ways_probed));
    field("donor_hits", u(result.donor_hits));
    field("donor_misses", u(result.donor_misses));
    field("recip_hits", u(result.recipient_hits));
    field("recip_misses", u(result.recipient_misses));
    field("xfer_avg", fmtDouble(result.avg_transfer_cycles));
    field("xfers", u(result.completed_transfers));
    field("flushed", u(result.flushed_lines));
    field("reparts", u(result.repartitions));
    field("epochs", u(result.epochs));
    field("flush_bin", u(result.flush_series_bin));
    {
        std::string series;
        for (const std::uint64_t value : result.flush_series) {
            series += series.empty() ? "" : ",";
            series += u(value);
        }
        field("flush_series", series);
    }
    field("dram_reads", u(result.dram_reads));
    field("dram_wb", u(result.dram_writebacks));
    field("dram_flush", u(result.dram_flushes));
    {
        std::string apps;
        for (const sim::AppResult &app : result.apps) {
            apps += apps.empty() ? "" : ";";
            apps += app.name;
            for (const std::string &part :
                 {fmtDouble(app.ipc), u(app.insts), u(app.cycles),
                  u(app.llc_accesses), u(app.llc_hits),
                  u(app.llc_misses), fmtDouble(app.mpki)}) {
                apps += ":";
                apps += part;
            }
        }
        field("apps", apps);
    }
    field("bank_conflicts", u(result.bank_conflicts));
    field("bank_conflict_cycles", u(result.bank_conflict_cycles));
    // Sampling fields are appended only for sampled runs, so every
    // exact result line stays byte-identical to the pre-sampling
    // encoding (same contract as the bank pair above).
    if (result.sample_windows > 0) {
        field("samp_windows", u(result.sample_windows));
        std::string cis;
        for (const sim::AppResult &app : result.apps) {
            cis += cis.empty() ? "" : ";";
            cis += fmtDouble(app.ipc_ci);
        }
        field("samp_ci", cis);
    }
    return out;
}

bool
tryParseResult(const std::string &text, sim::RunResult &out)
{
    const std::vector<std::string> words = splitWords(text);
    std::size_t i = 0;
    std::string value;
    // Fields are parsed in the exact formatResult() order: a missing,
    // reordered or unknown field is a parse failure, so a truncated
    // line can never load as a plausible-but-wrong result.
    auto next = [&](const char *name) -> bool {
        if (i >= words.size()) {
            return false;
        }
        const std::string &word = words[i];
        const std::size_t len = std::strlen(name);
        if (word.size() < len + 1 || word.compare(0, len, name) != 0 ||
            word[len] != '=') {
            return false;
        }
        value = word.substr(len + 1);
        ++i;
        return true;
    };
    auto takeU = [&](const char *name, std::uint64_t &dst) {
        return next(name) && tryParseUint(value, dst);
    };
    auto takeD = [&](const char *name, double &dst) {
        return next(name) && tryParseDouble(value, dst);
    };

    sim::RunResult result;
    if (!takeU("cycles", result.total_cycles) ||
        !takeD("dyn_nj", result.dynamic_energy_nj) ||
        !takeD("data_nj", result.data_energy_nj) ||
        !takeD("static_nj", result.static_energy_nj) ||
        !takeD("probed", result.avg_ways_probed) ||
        !takeU("donor_hits", result.donor_hits) ||
        !takeU("donor_misses", result.donor_misses) ||
        !takeU("recip_hits", result.recipient_hits) ||
        !takeU("recip_misses", result.recipient_misses) ||
        !takeD("xfer_avg", result.avg_transfer_cycles) ||
        !takeU("xfers", result.completed_transfers) ||
        !takeU("flushed", result.flushed_lines) ||
        !takeU("reparts", result.repartitions) ||
        !takeU("epochs", result.epochs) ||
        !takeU("flush_bin", result.flush_series_bin)) {
        return false;
    }
    if (!next("flush_series")) {
        return false;
    }
    for (const std::string &token : splitOn(value, ',')) {
        std::uint64_t bin = 0;
        if (!tryParseUint(token, bin)) {
            return false;
        }
        result.flush_series.push_back(bin);
    }
    if (!takeU("dram_reads", result.dram_reads) ||
        !takeU("dram_wb", result.dram_writebacks) ||
        !takeU("dram_flush", result.dram_flushes)) {
        return false;
    }
    if (!next("apps")) {
        return false;
    }
    for (const std::string &record : splitOn(value, ';')) {
        const std::vector<std::string> parts = splitOn(record, ':');
        if (parts.size() != 8 || parts[0].empty()) {
            return false;
        }
        sim::AppResult app;
        app.name = parts[0];
        if (!tryParseDouble(parts[1], app.ipc) ||
            !tryParseUint(parts[2], app.insts) ||
            !tryParseUint(parts[3], app.cycles) ||
            !tryParseUint(parts[4], app.llc_accesses) ||
            !tryParseUint(parts[5], app.llc_hits) ||
            !tryParseUint(parts[6], app.llc_misses) ||
            !tryParseDouble(parts[7], app.mpki)) {
            return false;
        }
        result.apps.push_back(std::move(app));
    }
    // Bank-contention fields: optional as a trailing pair, so result
    // lines written before banking existed still load (as zero).
    if (i < words.size()) {
        if (!takeU("bank_conflicts", result.bank_conflicts) ||
            !takeU("bank_conflict_cycles",
                   result.bank_conflict_cycles)) {
            return false;
        }
    }
    // Sampling fields: a second optional trailing group, nested after
    // the bank pair, so both pre-banking and pre-sampling lines load.
    if (i < words.size()) {
        if (!takeU("samp_windows", result.sample_windows) ||
            result.sample_windows == 0 || !next("samp_ci")) {
            return false;
        }
        const std::vector<std::string> cis = splitOn(value, ';');
        if (cis.size() != result.apps.size()) {
            return false;
        }
        for (std::size_t a = 0; a < cis.size(); ++a) {
            if (!tryParseDouble(cis[a], result.apps[a].ipc_ci)) {
                return false;
            }
        }
    }
    if (i != words.size()) {
        return false; // trailing garbage
    }
    out = std::move(result);
    return true;
}

sim::RunResult
parseResult(const std::string &text)
{
    sim::RunResult result;
    if (!tryParseResult(text, result)) {
        COOPSIM_FATAL("invalid result encoding '", text, "'");
    }
    return result;
}

std::string
formatStoreLine(const sim::RunKey &key, const sim::RunResult &result)
{
    return api::formatRunKey(key) + "\t" + formatResult(result);
}

bool
tryParseStoreLine(const std::string &line, sim::RunKey &key,
                  sim::RunResult &result)
{
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) {
        return false;
    }
    return api::tryParseRunKey(line.substr(0, tab), key) &&
           tryParseResult(line.substr(tab + 1), result);
}

// ---------------------------------------------------------------------------
// ResultStore

ResultStore::~ResultStore()
{
    if (journal_fd_ >= 0) {
        ::close(journal_fd_);
    }
}

void
ResultStore::put(const sim::RunKey &key, const sim::RunResult &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++puts_;
    const auto it = index_.find(key);
    if (it != index_.end()) {
        entries_[it->second].second = result;
    } else {
        index_.emplace(key, entries_.size());
        entries_.emplace_back(key, result);
    }
    if (!journal_dir_.empty()) {
        appendJournal(key, result);
    }
}

void
ResultStore::openJournal(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    journal_dir_ = dir;
}

void
ResultStore::appendJournal(const sim::RunKey &key,
                           const sim::RunResult &result)
{
    std::string text = withCrcSuffix(formatStoreLine(key, result)) + "\n";
    if (journal_path_.empty()) {
        // Created at the first put, header and line in one write: a
        // process killed between the open and the write leaves an
        // empty file, which loadDir() skips without quarantining it.
        journal_path_ = journal_dir_ + "/" + kJournalPrefix +
                        std::to_string(::getpid()) + "-" +
                        std::to_string(
                            std::chrono::system_clock::now()
                                .time_since_epoch() /
                            std::chrono::nanoseconds(1)) +
                        kStoreExtension;
        std::error_code ec;
        std::filesystem::create_directories(journal_dir_, ec);
        text.insert(0, std::string(kStoreMagic) + "\n");
        journal_fd_ = ::open(journal_path_.c_str(),
                             O_WRONLY | O_CREAT | O_EXCL | O_APPEND |
                                 O_CLOEXEC,
                             0644);
    }
    const ssize_t written =
        journal_fd_ < 0 ? -1 : ::write(journal_fd_, text.data(), text.size());
    if (written != static_cast<ssize_t>(text.size())) {
        COOPSIM_WARN("cannot journal to '", journal_path_, "': ",
                     written < 0 ? std::strerror(errno) : "short write",
                     "; results are kept for the exit save only");
        journal_dir_.clear();
    }
}

void
ResultStore::removeJournals(std::uint64_t puts_saved)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (puts_ != puts_saved) {
        return;
    }
    if (journal_fd_ >= 0) {
        ::close(journal_fd_);
        journal_fd_ = -1;
        std::remove(journal_path_.c_str());
    }
    journal_path_.clear();
    for (const std::string &path : loaded_journals_) {
        std::remove(path.c_str());
    }
    loaded_journals_.clear();
}

std::optional<sim::RunResult>
ResultStore::find(const sim::RunKey &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
        return std::nullopt;
    }
    return entries_[it->second].second;
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::uint64_t
ResultStore::putCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return puts_;
}

std::vector<sim::RunKey>
ResultStore::keys() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<sim::RunKey> keys;
    keys.reserve(entries_.size());
    for (const auto &[key, result] : entries_) {
        keys.push_back(key);
    }
    return keys;
}

std::size_t
ResultStore::loadFile(const std::string &path)
{
    return loadFileOutcome(path).loaded;
}

ResultStore::FileOutcome
ResultStore::loadFileOutcome(const std::string &path)
{
    FileOutcome outcome;
    std::ifstream file(path);
    if (!file) {
        COOPSIM_WARN("cannot open result store file '", path,
                     "'; skipped");
        return outcome;
    }
    // Only '\n'-terminated lines are complete: getline() stops at end
    // of file with eof() set when the last line has no newline. That
    // tail is a torn append (a journal writer killed mid-write, a full
    // disk), and it is skipped unparsed — cut inside its last field, a
    // line can still parse, as a smaller number. Alone it never
    // quarantines a file.
    std::string line;
    if (!std::getline(file, line) || file.eof() || line != kStoreMagic) {
        if (file.eof() && std::string_view(kStoreMagic).starts_with(line)) {
            // Cut inside the header: a journal whose writer died
            // between creating it and its first append.
            if (!line.empty()) {
                COOPSIM_WARN(path, ": store file cut inside its header; "
                             "skipped");
                lines_skipped_.fetch_add(1, std::memory_order_relaxed);
            }
            return outcome;
        }
        COOPSIM_WARN(path, ": not a coopsim result store (expected '",
                     kStoreMagic, "' header); skipped");
        outcome.bad_magic = true;
        return outcome;
    }
    std::size_t skipped = 0;
    std::size_t lineno = 1;
    std::string body;
    while (std::getline(file, line)) {
        ++lineno;
        if (file.eof()) {
            COOPSIM_WARN(path, ":", lineno,
                         ": unterminated last line (a torn write) "
                         "skipped");
            ++skipped;
            break;
        }
        if (line.empty() || line[0] == '#') {
            continue;
        }
        ++outcome.candidates;
        if (!splitCrcSuffix(line, body)) {
            COOPSIM_WARN(path, ":", lineno,
                         ": store line lacks a matching CRC32; "
                         "skipped");
            ++skipped;
            continue;
        }
        sim::RunKey key;
        sim::RunResult result;
        if (!tryParseStoreLine(body, key, result)) {
            COOPSIM_WARN(path, ":", lineno,
                         ": corrupt or truncated store line skipped");
            ++skipped;
            continue;
        }
        put(key, result);
        ++outcome.loaded;
    }
    lines_loaded_.fetch_add(outcome.loaded, std::memory_order_relaxed);
    lines_skipped_.fetch_add(skipped, std::memory_order_relaxed);
    return outcome;
}

std::size_t
ResultStore::loadDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        return 0;
    }
    std::vector<std::string> paths;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == kStoreExtension) {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    std::size_t loaded = 0;
    for (const std::string &path : paths) {
        const FileOutcome outcome = loadFileOutcome(path);
        loaded += outcome.loaded;
        // Quarantine a file that contributed nothing despite holding
        // content: renamed out of the *.coopstore glob so one
        // poisoned store file cannot warn-spam every later load —
        // and stays on disk for post-mortems. A legitimately empty
        // store (magic only) is left alone.
        const bool poisoned =
            outcome.bad_magic ||
            (outcome.candidates > 0 && outcome.loaded == 0);
        if (poisoned) {
            const std::string quarantined = path + ".quarantined";
            fs::rename(path, quarantined, ec);
            if (ec) {
                COOPSIM_WARN("cannot quarantine '", path, "': ",
                             ec.message());
            } else {
                COOPSIM_WARN(path, ": no valid store lines; "
                             "quarantined as '", quarantined, "'");
            }
            files_quarantined_.fetch_add(1, std::memory_order_relaxed);
        } else if (fs::path(path).filename().string().starts_with(
                       kJournalPrefix)) {
            std::lock_guard<std::mutex> lock(mutex_);
            loaded_journals_.push_back(path);
        }
    }
    return loaded;
}

ResultStore::Stats
ResultStore::stats() const
{
    Stats stats;
    stats.lines_loaded = lines_loaded_.load(std::memory_order_relaxed);
    stats.lines_skipped =
        lines_skipped_.load(std::memory_order_relaxed);
    stats.files_quarantined =
        files_quarantined_.load(std::memory_order_relaxed);
    return stats;
}

void
ResultStore::save(const std::string &path) const
{
    std::string error;
    if (!trySave(path, error)) {
        COOPSIM_FATAL(error);
    }
}

std::optional<std::size_t>
ResultStore::trySave(const std::string &path, std::string &error) const
{
    namespace fs = std::filesystem;
    std::vector<std::string> lines;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        lines.reserve(entries_.size());
        for (const auto &[key, result] : entries_) {
            lines.push_back(formatStoreLine(key, result));
        }
    }
    // Sorted lines make the file content a function of the entry set
    // alone, not of the (parallel, nondeterministic) completion order.
    // Sorting happens before the CRC suffix is appended so the order
    // is defined by the key encoding, never by checksum bytes.
    std::sort(lines.begin(), lines.end());

    std::string content = kStoreMagic;
    content += "\n";
    for (const std::string &line : lines) {
        content += withCrcSuffix(line);
        content += "\n";
    }

    const fs::path target(path);
    std::error_code ec;
    if (target.has_parent_path()) {
        fs::create_directories(target.parent_path(), ec);
        if (ec) {
            error = "cannot create store directory '" +
                    target.parent_path().string() +
                    "': " + ec.message();
            return std::nullopt;
        }
    }
    if (!writeFileDurably(path, content, error)) {
        return std::nullopt;
    }
    return lines.size();
}

} // namespace coopsim::store
