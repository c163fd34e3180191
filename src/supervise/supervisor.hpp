/**
 * @file
 * Process-level shard supervision: fork/exec one worker per shard,
 * watch exit status and wall-clock, retry with capped exponential
 * backoff, and report what happened.
 *
 * `coopsim_cli --spec F --shards=N --supervise --store=DIR` turns the
 * manual "run every --shard=I/N yourself" flow into a supervised one:
 * the parent re-execs its own binary once per shard, validates each
 * shard's store file after a clean exit (a worker that exits 0 but
 * leaves a torn or corrupted shard file is a failure too), and
 * retries failed, timed-out or invalid attempts up to a bounded
 * count. Exhausted shards are reported — the merge then proceeds
 * degraded with an explicit missing-keys summary instead of dying.
 *
 * The supervision loop is deliberately separated from process
 * spawning: superviseShards() drives any LaunchFn/ValidateFn, so
 * tests exercise the full retry/backoff/accounting state machine with
 * injected outcomes, while runProcess() is the real fork/exec/waitpid
 * runner (with SIGKILL on timeout) the CLI plugs in. Backoff delays
 * are deterministic — capped exponential plus a jitter derived from
 * (shard, attempt), never from a clock — so supervised runs are
 * reproducible end to end.
 *
 * The CLI forwards `--trace-dir` and the stream-memo flags to every
 * worker it spawns. Each worker memoizes the op streams it generates
 * in its own memory, so a retried attempt generates them again.
 */

#ifndef COOPSIM_SUPERVISE_SUPERVISOR_HPP
#define COOPSIM_SUPERVISE_SUPERVISOR_HPP

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace coopsim::supervise
{

/** Retry/backoff knobs of one supervised sweep. */
struct RetryPolicy
{
    /** Attempts per shard before it is reported failed (>= 1). */
    unsigned max_attempts = 3;
    /** Backoff before the 2nd attempt; doubles per further attempt. */
    unsigned base_delay_ms = 250;
    /** Cap on the backoff (jitter included). */
    unsigned max_delay_ms = 5000;
    /** Per-attempt wall-clock budget; <= 0 disables the timeout. */
    double shard_timeout_s = 900.0;
};

/**
 * Delay before @p attempt (1-based) of @p shard: 0 for the first
 * attempt, then base * 2^(attempt-2) capped at max_delay_ms, plus a
 * deterministic jitter in [0, delay/4] mixed from (shard, attempt) —
 * retries of different shards decorrelate without any randomness.
 * The total never exceeds max_delay_ms.
 */
unsigned backoffDelayMs(const RetryPolicy &policy, unsigned shard,
                        unsigned attempt);

/** Outcome of one spawned process. */
struct ProcessResult
{
    /** Exit status; 128+signal for signal deaths, -1 when the spawn
     *  itself failed. */
    int exit_code = -1;
    /** The per-attempt timeout fired and the process was SIGKILLed. */
    bool timed_out = false;
    /** Wall time from fork to reap, seconds. */
    double wall_s = 0.0;
};

/**
 * fork/exec @p argv (argv[0] is the binary; resolved via PATH) and
 * wait for it, SIGKILLing at @p timeout_s (<= 0 = no timeout). Each
 * entry of @p extra_env ("KEY=VALUE") is added to the child's
 * environment. When @p log_path is non-empty the child's stdout and
 * stderr are appended there — the supervisor's own streams stay
 * clean, which is what keeps supervised stdout bit-identical to an
 * unsharded run.
 */
ProcessResult runProcess(const std::vector<std::string> &argv,
                         const std::vector<std::string> &extra_env,
                         double timeout_s,
                         const std::string &log_path = "");

/** One attempt of one shard, as recorded for the report. */
struct AttemptRecord
{
    unsigned attempt = 0;
    int exit_code = -1;
    bool timed_out = false;
    /** Worker exited 0 but its shard store failed validation (torn
     *  write, corruption, missing keys). */
    bool invalid_store = false;
    double wall_s = 0.0;
};

/** Everything that happened to one shard. */
struct ShardReport
{
    unsigned shard = 0;
    bool succeeded = false;
    std::vector<AttemptRecord> attempts;
};

/** The whole supervised sweep. */
struct SuperviseReport
{
    std::vector<ShardReport> shards;

    bool allSucceeded() const;
    /** Indices of shards that exhausted their attempts. */
    std::vector<unsigned> failedShards() const;
    /** Attempts summed over every shard. */
    std::size_t totalAttempts() const;
};

/** Launches one attempt of one shard. */
using LaunchFn =
    std::function<ProcessResult(unsigned shard, unsigned attempt)>;

/** Post-exit validation of a shard's output; fills @p why on
 *  failure. An empty function accepts every clean exit. */
using ValidateFn =
    std::function<bool(unsigned shard, std::string &why)>;

/** Backoff sleep hook; tests inject a recorder, the CLI sleeps. */
using SleepFn = std::function<void(unsigned delay_ms)>;

/**
 * Runs every shard 0..count-1 through the launch/validate/retry
 * state machine, shards in parallel (one monitor thread each),
 * attempts of one shard sequential with backoffDelayMs() between
 * them. An attempt succeeds when launch() reports exit 0 without
 * timeout AND validate() (if given) accepts the shard's output;
 * anything else consumes one attempt. Shards never abort the sweep:
 * a shard that exhausts max_attempts is reported failed and the
 * remaining shards keep running.
 */
SuperviseReport superviseShards(unsigned shard_count,
                                const RetryPolicy &policy,
                                const LaunchFn &launch,
                                const ValidateFn &validate = {},
                                const SleepFn &sleep_fn = {});

/** Prints the per-shard attempt/retry/wall-time report to @p out
 *  (the CLI passes stderr, keeping stdout bit-identical). */
void printSuperviseReport(const SuperviseReport &report, std::FILE *out);

} // namespace coopsim::supervise

#endif // COOPSIM_SUPERVISE_SUPERVISOR_HPP
