/**
 * @file
 * Disk-backed, RunKey-addressed result store.
 *
 * The paper's figures are cross-products over (scheme x workload group
 * x threshold x seed); distributing that run-key space across
 * processes or hosts only works if completed simulations can be
 * persisted, shipped and folded back together. A ResultStore is that
 * persistence layer:
 *
 *  - each entry is one line, `formatRunKey(k) '\t' formatResult(r)
 *    '\t' #crc32=XXXXXXXX` — the canonical RunKey encoding
 *    (api/spec.hpp) is the merge key, so any two stores produced by
 *    any two hosts can be combined, and the CRC32 suffix detects
 *    torn or bit-flipped lines that still parse structurally (a line
 *    without its trailer is skipped like a mismatch: cut inside its
 *    last field and then '\n'-terminated, it would parse as a smaller
 *    number);
 *  - files are written durably and atomically (writeFileDurably():
 *    write to `<path>.tmp`, fsync, then rename), so a reader never
 *    observes a half-written store and a crashed writer leaves the
 *    previous file intact; trySave() is the non-fatal variant the
 *    atexit save uses — a failed write (ENOSPC) or rename (read-only
 *    fs) is reported, naming the preserved temp file when the rename
 *    failed, instead of losing results or exiting;
 *  - between saves, a store with a journal (openJournal()) appends
 *    every put() to `journal-<pid>-<ns>.coopstore` as it happens, so a
 *    killed process loses only its in-flight runs: the journal is an
 *    ordinary store file, and the next loadDir() reads it back;
 *  - loading merges with last-writer-wins dedup (later files/lines
 *    replace earlier entries for the same key), corrupt or truncated
 *    lines are skipped with a warning instead of poisoning the store
 *    (counted in Stats::lines_skipped), and loadDir() quarantines
 *    files that yield zero valid lines (renamed to
 *    `<file>.quarantined` so they stop matching the store glob). Only
 *    '\n'-terminated lines count: an unterminated last line is a torn
 *    append, skipped without being parsed;
 *  - sim::RunExecutor::attachStore() serves cache hits from a store
 *    before any simulation is enqueued and records every completed
 *    run back into it, turning repeated sweeps into O(cache misses).
 *
 * The result encoding round-trips every field of sim::RunResult
 * bit-exactly (doubles via the shortest-exact fmtDouble encoding), so
 * a figure table rendered from stored results is bit-identical to one
 * rendered from fresh simulations. App names must not contain
 * whitespace, ':' or ';' (the built-in SPEC benchmark names never do).
 *
 * Thread-safety: put()/find()/size() and the journal calls are safe
 * to call concurrently (executor workers record results, and append
 * them to the journal, while the submitting thread probes for hits;
 * an exit save may remove the journal while a run is still in
 * flight). Loading, saving and merging are administrative and must
 * not race mutation.
 */

#ifndef COOPSIM_STORE_RESULT_STORE_HPP
#define COOPSIM_STORE_RESULT_STORE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/executor.hpp"

namespace coopsim::store
{

/** First line of every store file. */
inline constexpr const char *kStoreMagic = "coopsim-store v1";

/** Store files are `<name>.coopstore`; loadDir() reads every one. */
inline constexpr const char *kStoreExtension = ".coopstore";

/** The file an unsharded or merged sweep persists to. */
inline constexpr const char *kMergedFileName = "results.coopstore";

/** The file `--shard=I/N` persists its slice to ("shard-0of2.coopstore"). */
std::string shardFileName(unsigned index, unsigned count);

/** Journal files are `journal-<pid>-<ns>.coopstore`
 *  (ResultStore::openJournal). */
inline constexpr const char *kJournalPrefix = "journal-";

/** CRC-32 (IEEE 802.3, the zlib polynomial) of @p data. */
std::uint32_t crc32(const std::string &data);

/** Range overload: the same CRC-32 without building a string — the
 *  stream memo's frame codec checksums payloads in place with it. */
std::uint32_t crc32(const char *data, std::size_t len);

/**
 * Writes @p data to @p path durably and atomically: into
 * `<path>.tmp`, fsynced, renamed over @p path, then the directory
 * fsynced so the rename itself survives a power cut. The one writer
 * behind store saves. The parent directory must exist.
 *
 * False with the failing step in @p error. An incomplete temp file is
 * removed; when only the rename fails, the temp file holds the
 * complete, synced content and is kept (and named in @p error) so the
 * data stays recoverable. The caller chooses the severity.
 */
bool writeFileDurably(const std::string &path, std::string_view data,
                      std::string &error);

/** `<body>\t#crc32=XXXXXXXX` — the suffixed store line save() emits;
 *  the checksum covers exactly @p body. */
std::string withCrcSuffix(const std::string &body);

/** Splits and verifies the `\t#crc32=` trailer of @p line: true, with
 *  @p body holding the line without it, only when the trailer is
 *  present and matches. A line without one is as corrupt as a
 *  mismatch, even if it would still parse. */
bool splitCrcSuffix(const std::string &line, std::string &body);

/** Canonical single-line encoding of every RunResult field (doubles
 *  round-trip bit-exactly). */
std::string formatResult(const sim::RunResult &result);

/** Strict parse of formatResult() output; false on any malformed,
 *  reordered, truncated or trailing content. */
bool tryParseResult(const std::string &text, sim::RunResult &out);

/** tryParseResult or fatal. */
sim::RunResult parseResult(const std::string &text);

/** One store line: `formatRunKey(key) '\t' formatResult(result)`. */
std::string formatStoreLine(const sim::RunKey &key,
                            const sim::RunResult &result);

/** Splits and parses one store line; false when either half is
 *  malformed (unknown registry names included). */
bool tryParseStoreLine(const std::string &line, sim::RunKey &key,
                       sim::RunResult &result);

/**
 * An in-memory map of RunKey -> RunResult with the disk format above.
 * Entries keep insertion order internally; save() emits lines sorted
 * by their key encoding so identical contents produce identical files
 * regardless of completion order.
 */
class ResultStore
{
  public:
    /** Load-health counters, cumulative over every loadFile/loadDir
     *  call on this store (the CLI surfaces them on stderr). */
    struct Stats
    {
        /** Entry lines loaded successfully. */
        std::uint64_t lines_loaded = 0;
        /** Corrupt, truncated, CRC-less or CRC-mismatched lines
         *  skipped. */
        std::uint64_t lines_skipped = 0;
        /** Files loadDir() renamed to `.quarantined` because no line
         *  in them was valid (bad magic or all lines corrupt). */
        std::uint64_t files_quarantined = 0;
    };

    /** Closes the journal; the file stays for the next loadDir(). */
    ~ResultStore();

    /** Inserts or replaces (last-writer-wins) the entry for @p key,
     *  and appends it to the journal when one is open. */
    void put(const sim::RunKey &key, const sim::RunResult &result);

    /** Copy of the stored result for @p key, if any. */
    std::optional<sim::RunResult> find(const sim::RunKey &key) const;

    std::size_t size() const;

    /** put() calls so far, loads included. A save whose snapshot is
     *  taken after this is read holds every one of them. */
    std::uint64_t putCount() const;

    /** Stored keys, in insertion order. */
    std::vector<sim::RunKey> keys() const;

    /**
     * Merges one store file into this store (last-writer-wins against
     * existing entries). Returns the number of entries loaded. A
     * missing file, a file without the magic header, and corrupt or
     * truncated lines are skipped with a warning — a crash mid-append
     * never poisons the surviving entries.
     */
    std::size_t loadFile(const std::string &path);

    /**
     * loadFile() on every `*.coopstore` in @p dir, in lexical
     * filename order (later files win). Missing dir loads nothing.
     * A file that yields zero valid lines despite having candidate
     * lines (or lacks the magic header) is quarantined: renamed to
     * `<file>.quarantined` — out of the store glob, so a poisoned
     * shard file cannot re-trip every later load or be clobbered
     * silently — and counted in Stats::files_quarantined. A file cut
     * inside its header is a journal whose writer died before its
     * first append: it holds nothing and is not quarantined. The
     * journals read are remembered for removeJournals().
     */
    std::size_t loadDir(const std::string &dir);

    /**
     * Journals every later put() into @p dir: each appends its CRC'd
     * store line to `journal-<pid>-<ns>.coopstore` in one write(2)
     * under the store mutex. The file (and @p dir) is created at the
     * first put, with the magic header in that same write, so a
     * session that simulates nothing creates nothing; O_EXCL and the
     * pid-plus-clock name keep a rerun from appending to a killed
     * run's file. Call it after loading, so loaded lines are never
     * journaled again. There is no fsync: the journal outlives the
     * process, not the machine — the exit save's writeFileDurably()
     * covers power loss. A failed write warns once and ends the
     * journal; the store itself keeps every result.
     */
    void openJournal(const std::string &dir);

    /**
     * Closes and deletes this store's own journal and, with
     * @p loaded_too, the journals loadDir() read into it, once a save
     * holds their entries: @p puts_saved is the putCount() read before
     * that save's snapshot. If a put() has arrived since, its line may
     * be in no save, so every journal stays on disk for the next
     * loadDir(). A put() after the removal starts a new journal.
     */
    void removeJournals(bool loaded_too, std::uint64_t puts_saved);

    /**
     * Atomically and durably writes the whole store to @p path: the
     * content goes to `<path>.tmp` first and is renamed over @p path
     * only after a successful write + fsync. Parent directories are
     * created as needed. Fatal on failure (see trySave()).
     */
    void save(const std::string &path) const;

    /**
     * save() without the fatal: returns the number of entries written,
     * or nothing, with @p error filled, on any write/flush/rename
     * failure. When the data reached the temp file but could not be
     * renamed into place (ENOSPC on the target, read-only directory),
     * the temp file is left on disk and named in @p error so the
     * results remain recoverable — the atexit store save reports this
     * loudly instead of dying or silently losing the sweep.
     */
    std::optional<std::size_t> trySave(const std::string &path,
                                       std::string &error) const;

    /** Cumulative load-health counters. */
    Stats stats() const;

  private:
    /** Per-file outcome loadDir() bases its quarantine decision on. */
    struct FileOutcome
    {
        std::size_t loaded = 0;
        /** Non-comment, non-blank lines seen. */
        std::size_t candidates = 0;
        bool bad_magic = false;
    };

    FileOutcome loadFileOutcome(const std::string &path);

    /** put()'s journal append; mutex_ held. */
    void appendJournal(const sim::RunKey &key,
                       const sim::RunResult &result);

    mutable std::mutex mutex_;
    /** Insertion-ordered entries; index_ maps key -> position. */
    std::vector<std::pair<sim::RunKey, sim::RunResult>> entries_;
    std::unordered_map<sim::RunKey, std::size_t, sim::RunKeyHash> index_;
    /** put() calls so far (putCount()). */
    std::uint64_t puts_ = 0;
    /** Where put() journals; empty when no journal is open or an
     *  append failed. */
    std::string journal_dir_;
    /** The journal file, named at the first put. */
    std::string journal_path_;
    /** Open from the first put until a removeJournals() that removes
     *  it; -1 if the create failed. */
    int journal_fd_ = -1;
    /** Journal files loadDir() read. */
    std::vector<std::string> loaded_journals_;
    std::atomic<std::uint64_t> lines_loaded_{0};
    std::atomic<std::uint64_t> lines_skipped_{0};
    std::atomic<std::uint64_t> files_quarantined_{0};
};

} // namespace coopsim::store

#endif // COOPSIM_STORE_RESULT_STORE_HPP
