/**
 * @file
 * ExperimentResults: the view over a completed (or in-flight)
 * ExperimentSpec, plus the figure-style table renderers.
 *
 * Constructing an ExperimentResults expands the spec into its RunKey
 * cross-product and enqueues every run on the process-wide
 * sim::RunExecutor, so all host cores work the sweep while the caller
 * formats whatever cells are ready. Cells are addressed by a Cell
 * override set on top of the spec's first axis values, so the common
 * case — "the result of scheme S on group G" — is one line.
 *
 * printTable()/printExperiment() render the paper's figure tables:
 * rows = workload groups (+ geometric-mean AVG row),
 * columns = the spec's varying axis, every cell normalised to the
 * spec's baseline column. `coopsim_cli --spec <file>` is exactly
 * printExperiment(parseSpecFile(file)).
 */

#ifndef COOPSIM_API_EXPERIMENT_HPP
#define COOPSIM_API_EXPERIMENT_HPP

#include <functional>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/spec.hpp"

namespace coopsim::api
{

class ExperimentResults;

/** A named per-cell metric ("speedup", "dynamic_energy", ...). */
using MetricFn =
    std::function<double(const ExperimentResults &, const Cell &)>;

/** The metric table; "speedup", "dynamic_energy" and "static_energy"
 *  are pre-registered. */
Registry<MetricFn> &metricRegistry();

/** Registers a custom metric constructible by name in spec files. */
void registerMetric(const std::string &name, MetricFn fn);

/**
 * The results view of one ExperimentSpec.
 */
class ExperimentResults
{
  public:
    /** Validates @p spec, expands it and prefetches every run. */
    explicit ExperimentResults(ExperimentSpec spec);

    const ExperimentSpec &spec() const { return spec_; }
    /** The resolved workload groups, in table-row order. */
    const std::vector<trace::WorkloadGroup> &groups() const
    {
        return groups_;
    }
    /** The expanded RunKeys, in prefetch order. */
    const std::vector<sim::RunKey> &keys() const { return keys_; }

    /** The RunKey @p cell resolves to under this spec (groupRunKey). */
    sim::RunKey keyFor(const Cell &cell) const;

    /** The (memoised) result of @p cell; blocks until ready. */
    const sim::RunResult &result(const Cell &cell) const;
    const sim::RunResult &result(const sim::RunKey &key) const;

    /** The solo-baseline run of @p app on the @p cores-core system
     *  (soloRunKey: repl/seed/sampling taken from @p cell / the
     *  spec). */
    const sim::RunResult &soloResult(const std::string &app,
                                     std::uint32_t cores,
                                     const Cell &cell = {}) const;
    double soloIpc(const std::string &app, std::uint32_t cores,
                   const Cell &cell = {}) const;

    /** Weighted speedup (Equation 1) of @p cell. */
    double weightedSpeedup(const Cell &cell) const;

    /**
     * Half-width of the weighted-speedup confidence interval of
     * @p cell: the per-app IPC CIs of the shared and solo runs
     * (populated by the sampling estimators; zero for exact runs)
     * propagated linearly through Equation 1 — the estimator biases
     * are correlated across apps, so quadrature would understate.
     */
    double weightedSpeedupCi(const Cell &cell) const;

    /** Evaluates the metric registered as @p name on @p cell. */
    double metric(const std::string &name, const Cell &cell) const;

    /** CI half-width of the metric @p name on @p cell ("speedup"
     *  propagates the sampled IPC CIs; other metrics report 0). */
    double metricCi(const std::string &name, const Cell &cell) const;

  private:
    ExperimentSpec spec_;
    std::vector<trace::WorkloadGroup> groups_;
    std::vector<sim::RunKey> keys_;
};

/** Expands, prefetches and returns the results view of @p spec. */
ExperimentResults runExperiment(const ExperimentSpec &spec);

/**
 * Renders the spec's table: layout "schemes" prints one column per
 * scheme normalised to the baseline scheme; layout "thresholds" one
 * column per threshold normalised to the baseline threshold. Both end
 * with a geometric-mean AVG row. @p metric overrides the spec's named
 * metric (custom benches); the default resolves spec.metric through
 * the metric registry. With @p show_ci the normalised layouts print
 * each cell as `value±ci` (the sampling estimators' confidence
 * interval propagated through the normalisation); exact sweeps print
 * ±0.000.
 */
void printTable(const ExperimentResults &results,
                const MetricFn &metric = {}, bool show_ci = false);

/** runExperiment + printTable: the `coopsim_cli --spec` entry point. */
void printExperiment(const ExperimentSpec &spec, bool show_ci = false);

} // namespace coopsim::api

#endif // COOPSIM_API_EXPERIMENT_HPP
