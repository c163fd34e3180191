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
 * printTable()/printExperiment() render the paper's tables in the
 * shape the spec's layout names. `coopsim_cli --spec <file>` is
 * exactly printExperiment(parseSpecFile(file)).
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

/** The metric table: "speedup", "dynamic_energy" and
 *  "static_energy". */
Registry<MetricFn> &metricRegistry();

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

    /** CI half-width of the metric @p name on @p cell ("speedup"
     *  propagates the sampled IPC CIs; other metrics report 0). */
    double metricCi(const std::string &name, const Cell &cell) const;

  private:
    ExperimentSpec spec_;
    std::vector<trace::WorkloadGroup> groups_;
    std::vector<sim::RunKey> keys_;
};

/**
 * Renders the spec's table. A column-axis layout (ColumnAxis) prints
 * rows = workload groups, one column per axis value, each cell the
 * spec's metric normalised to the row's baseline cell, and a
 * geometric-mean AVG row; with @p show_ci each cell reads `value±ci`
 * (the sampling estimators' confidence interval propagated through
 * the normalisation; exact sweeps print ±0.000). The takeover,
 * transfers, bandwidth and mpki layouts print their figure's or
 * table's own shape. Fatal for layout "none".
 */
void printTable(const ExperimentResults &results, bool show_ci = false);

/** ExperimentResults + printTable: the `coopsim_cli --spec` entry
 *  point. A layout with no renderer is fatal before any run is
 *  simulated. */
void printExperiment(const ExperimentSpec &spec, bool show_ci = false);

} // namespace coopsim::api

#endif // COOPSIM_API_EXPERIMENT_HPP
