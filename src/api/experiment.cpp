#include "api/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "sim/metrics.hpp"

namespace coopsim::api
{

Registry<MetricFn> &
metricRegistry()
{
    static Registry<MetricFn> registry = [] {
        Registry<MetricFn> r("metric");
        r.add("speedup",
              [](const ExperimentResults &results, const Cell &cell) {
                  return results.weightedSpeedup(cell);
              });
        r.add("dynamic_energy",
              [](const ExperimentResults &results, const Cell &cell) {
                  return results.result(cell).dynamic_energy_nj;
              });
        r.add("static_energy",
              [](const ExperimentResults &results, const Cell &cell) {
                  return results.result(cell).static_energy_nj;
              });
        return r;
    }();
    return registry;
}

void
registerMetric(const std::string &name, MetricFn fn)
{
    metricRegistry().add(name, std::move(fn));
}

ExperimentResults::ExperimentResults(ExperimentSpec spec)
    : spec_(std::move(spec)), keys_(expandSpec(spec_)) // validates
{
    if (spec_.layout != "none") {
        metricRegistry().get(spec_.metric);
    }
    groups_ = resolveSpecGroups(spec_);
    sim::RunExecutor::instance().prefetch(keys_);
}

sim::RunKey
ExperimentResults::keyFor(const Cell &cell) const
{
    return groupRunKey(spec_, workloadRegistry().get(cell.group), cell);
}

const sim::RunResult &
ExperimentResults::result(const Cell &cell) const
{
    return result(keyFor(cell));
}

const sim::RunResult &
ExperimentResults::result(const sim::RunKey &key) const
{
    return sim::RunExecutor::instance().run(key);
}

const sim::RunResult &
ExperimentResults::soloResult(const std::string &app,
                              std::uint32_t cores,
                              const Cell &cell) const
{
    return result(soloRunKey(spec_, app, cores, cell));
}

double
ExperimentResults::soloIpc(const std::string &app, std::uint32_t cores,
                           const Cell &cell) const
{
    return soloResult(app, cores, cell).apps.at(0).ipc;
}

double
ExperimentResults::weightedSpeedup(const Cell &cell) const
{
    const trace::WorkloadGroup &group =
        workloadRegistry().get(cell.group);
    const auto cores = static_cast<std::uint32_t>(group.apps.size());
    const sim::RunResult &shared = result(cell);
    std::vector<double> alone;
    alone.reserve(group.apps.size());
    for (const std::string &app : group.apps) {
        alone.push_back(soloIpc(app, cores, cell));
    }
    return sim::weightedSpeedup(shared, alone);
}

double
ExperimentResults::weightedSpeedupCi(const Cell &cell) const
{
    const trace::WorkloadGroup &group =
        workloadRegistry().get(cell.group);
    const auto cores = static_cast<std::uint32_t>(group.apps.size());
    const sim::RunResult &shared = result(cell);
    // Per-app speedup s_i = shared_i / alone_i. The IPC CIs are
    // dominated by the estimators' systematic allowance, which is
    // *correlated* across the shared run's apps (every app is measured
    // through the same sampled sets and the same detail windows), so
    // the propagation is fully linear rather than in quadrature:
    // ci(s_i) = s_i * (ci_sh/sh + ci_al/al), and the sum over apps
    // (Equation 1 is a sum) takes the plain sum of the per-app CIs.
    // Quadrature would divide by a sqrt(n) the correlated errors
    // never earn.
    double sum = 0.0;
    for (std::size_t i = 0; i < group.apps.size(); ++i) {
        const sim::AppResult &app = shared.apps.at(i);
        const sim::RunResult &solo =
            soloResult(group.apps[i], cores, cell);
        const sim::AppResult &alone = solo.apps.at(0);
        if (app.ipc <= 0.0 || alone.ipc <= 0.0) {
            continue;
        }
        const double s = app.ipc / alone.ipc;
        sum += s * (app.ipc_ci / app.ipc + alone.ipc_ci / alone.ipc);
    }
    return sum;
}

double
ExperimentResults::metric(const std::string &name,
                          const Cell &cell) const
{
    return metricRegistry().get(name)(*this, cell);
}

double
ExperimentResults::metricCi(const std::string &name,
                            const Cell &cell) const
{
    // IPC is the only per-app quantity the estimators attach a CI to,
    // so only the speedup metric can propagate one; energy and other
    // counter metrics report a zero half-width.
    if (name == "speedup") {
        return weightedSpeedupCi(cell);
    }
    return 0.0;
}

ExperimentResults
runExperiment(const ExperimentSpec &spec)
{
    return ExperimentResults(spec);
}

// ---------------------------------------------------------------------------
// Table rendering

namespace
{

/**
 * Shared body of the normalised column layouts (schemes, thresholds,
 * partitioners): one row per group with every cell normalised to that
 * row's baseline cell, closed by a geometric-mean AVG row. The layout
 * printers keep only their header lines and the Cell field their
 * column axis sets.
 */
void
printNormalisedRows(
    const ExperimentResults &results, const MetricFn &metric,
    bool show_ci, int group_width, std::size_t columns,
    const std::function<Cell(const std::string &)> &baseline_cell,
    const std::function<Cell(const std::string &, std::size_t)> &cell_at)
{
    // CI of a normalised cell v/b: the relative half-widths of value
    // and baseline add in quadrature; the AVG row's geometric mean
    // divides the root-sum-square of the relative CIs by the row
    // count. Exact runs carry zero CIs, so the ± columns print 0.000.
    const std::string &metric_name = results.spec().metric;
    auto cell_ci = [&](const Cell &cell) {
        return show_ci ? results.metricCi(metric_name, cell) : 0.0;
    };
    std::vector<std::vector<double>> norms(columns);
    std::vector<std::vector<double>> rel_cis(columns);
    for (const trace::WorkloadGroup &group : results.groups()) {
        const Cell base_cell = baseline_cell(group.name);
        const double baseline = metric(results, base_cell);
        const double baseline_ci = cell_ci(base_cell);
        std::printf("%-*s", group_width, group.name.c_str());
        for (std::size_t i = 0; i < columns; ++i) {
            const Cell cell = cell_at(group.name, i);
            const double value = metric(results, cell);
            const double norm = sim::normalizeTo(value, baseline);
            norms[i].push_back(norm);
            if (!show_ci) {
                std::printf(" %12.3f", norm);
                continue;
            }
            double rel = 0.0;
            if (value != 0.0 && baseline != 0.0) {
                const double rv = cell_ci(cell) / value;
                const double rb = baseline_ci / baseline;
                rel = std::sqrt(rv * rv + rb * rb);
            }
            rel_cis[i].push_back(rel);
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.3f±%.3f", norm,
                          std::fabs(norm) * rel);
            std::printf(" %14s", buf);
        }
        std::printf("\n");
    }
    std::printf("%-*s", group_width, "AVG");
    for (std::size_t i = 0; i < columns; ++i) {
        const double gm = stats::geomean(norms[i]);
        if (!show_ci) {
            std::printf(" %12.3f", gm);
            continue;
        }
        double sum_sq = 0.0;
        for (const double rel : rel_cis[i]) {
            sum_sq += rel * rel;
        }
        const double gm_rel =
            rel_cis[i].empty()
                ? 0.0
                : std::sqrt(sum_sq) /
                      static_cast<double>(rel_cis[i].size());
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f±%.3f", gm,
                      std::fabs(gm) * gm_rel);
        std::printf(" %14s", buf);
    }
    std::printf("\n");
}

void
printSchemeTable(const ExperimentResults &results,
                 const MetricFn &metric, bool show_ci)
{
    const ExperimentSpec &spec = results.spec();
    const int col = show_ci ? 14 : 12;
    std::printf("%s\n", spec.title.c_str());
    std::printf("# normalised to %s; %s is better\n",
                schemeLabel(spec.baseline).c_str(),
                spec.higher_better ? "higher" : "lower");
    std::printf("%-8s", "group");
    for (const std::string &scheme : spec.schemes) {
        std::printf(" %*s", col, schemeLabel(scheme).c_str());
    }
    std::printf("\n");

    printNormalisedRows(
        results, metric, show_ci, 8, spec.schemes.size(),
        [&spec](const std::string &group) {
            Cell cell;
            cell.group = group;
            cell.scheme = spec.baseline;
            return cell;
        },
        [&spec](const std::string &group, std::size_t i) {
            Cell cell;
            cell.group = group;
            cell.scheme = spec.schemes[i];
            return cell;
        });
}

void
printThresholdTable(const ExperimentResults &results,
                    const MetricFn &metric, bool show_ci)
{
    const ExperimentSpec &spec = results.spec();
    const double baseline_t = std::strtod(spec.baseline.c_str(), nullptr);

    std::printf("%s\n", spec.title.c_str());
    std::printf("# %s, normalised to T = %s\n",
                schemeLabel(spec.schemes.empty() ? "coop"
                                                 : spec.schemes.front())
                    .c_str(),
                spec.baseline.c_str());
    std::printf("%-8s", "group");
    for (const double t : spec.thresholds) {
        std::printf("%s       T=%4.2f", show_ci ? "  " : "", t);
    }
    std::printf("\n");

    printNormalisedRows(
        results, metric, show_ci, 8, spec.thresholds.size(),
        [baseline_t](const std::string &group) {
            Cell cell;
            cell.group = group;
            cell.threshold = baseline_t;
            return cell;
        },
        [&spec](const std::string &group, std::size_t i) {
            Cell cell;
            cell.group = group;
            cell.threshold = spec.thresholds[i];
            return cell;
        });
}

void
printPartitionerTable(const ExperimentResults &results,
                      const MetricFn &metric, bool show_ci)
{
    const ExperimentSpec &spec = results.spec();
    const int col = show_ci ? 14 : 12;
    std::printf("%s\n", spec.title.c_str());
    std::printf("# normalised to %s; %s is better\n",
                spec.baseline.c_str(),
                spec.higher_better ? "higher" : "lower");
    std::printf("%-10s", "group");
    for (const std::string &partitioner : spec.partitioners) {
        std::printf(" %*s", col, partitioner.c_str());
    }
    std::printf("\n");

    printNormalisedRows(
        results, metric, show_ci, 10, spec.partitioners.size(),
        [&spec](const std::string &group) {
            Cell cell;
            cell.group = group;
            cell.partitioner = spec.baseline;
            return cell;
        },
        [&spec](const std::string &group, std::size_t i) {
            Cell cell;
            cell.group = group;
            cell.partitioner = spec.partitioners[i];
            return cell;
        });
}

/** The Figure 14 breakdown: events that set takeover bits while ways
 *  migrate (donor/recipient x hit/miss), for the first scheme. */
void
printTakeoverTable(const ExperimentResults &results)
{
    const ExperimentSpec &spec = results.spec();
    std::printf("%s\n", spec.title.c_str());
    std::printf("%-8s %10s %10s %10s %10s %10s\n", "group", "recipMiss",
                "recipHit", "donorMiss", "donorHit", "events");

    std::uint64_t tdh = 0;
    std::uint64_t tdm = 0;
    std::uint64_t trh = 0;
    std::uint64_t trm = 0;
    for (const auto &group : results.groups()) {
        Cell cell;
        cell.group = group.name;
        const auto &r = results.result(cell);
        const std::uint64_t total = r.donor_hits + r.donor_misses +
                                    r.recipient_hits +
                                    r.recipient_misses;
        tdh += r.donor_hits;
        tdm += r.donor_misses;
        trh += r.recipient_hits;
        trm += r.recipient_misses;
        if (total == 0) {
            std::printf("%-8s %10s %10s %10s %10s %10s\n",
                        group.name.c_str(), "-", "-", "-", "-", "0");
            continue;
        }
        const double d = static_cast<double>(total);
        std::printf("%-8s %10.3f %10.3f %10.3f %10.3f %10llu\n",
                    group.name.c_str(), r.recipient_misses / d,
                    r.recipient_hits / d, r.donor_misses / d,
                    r.donor_hits / d,
                    static_cast<unsigned long long>(total));
    }
    const std::uint64_t total = tdh + tdm + trh + trm;
    if (total > 0) {
        const double d = static_cast<double>(total);
        std::printf("%-8s %10.3f %10.3f %10.3f %10.3f %10llu\n", "AVG",
                    trm / d, trh / d, tdm / d, tdh / d,
                    static_cast<unsigned long long>(total));
        std::printf("# donor hits + recipient misses = %.3f "
                    "(paper: ~two-thirds)\n",
                    (tdh + trm) / d);
    }
}

/** The Figure 15 comparison: average cycles to transfer one complete
 *  way, first scheme of the axis vs second. */
void
printTransferTable(const ExperimentResults &results)
{
    const ExperimentSpec &spec = results.spec();
    const std::string &left = spec.schemes.at(0);
    const std::string &right = spec.schemes.at(1);
    std::printf("%s\n", spec.title.c_str());
    std::printf("%-8s %14s %14s %8s %8s\n", "group",
                schemeLabel(left).c_str(), schemeLabel(right).c_str(),
                ("#" + left).c_str(), ("#" + right).c_str());

    std::vector<double> left_all;
    std::vector<double> right_all;
    for (const auto &group : results.groups()) {
        Cell left_cell;
        left_cell.group = group.name;
        left_cell.scheme = left;
        Cell right_cell;
        right_cell.group = group.name;
        right_cell.scheme = right;
        const auto &u = results.result(left_cell);
        const auto &c = results.result(right_cell);
        if (u.completed_transfers > 0) {
            left_all.push_back(u.avg_transfer_cycles);
        }
        if (c.completed_transfers > 0) {
            right_all.push_back(c.avg_transfer_cycles);
        }
        auto fmt = [](const sim::RunResult &r) {
            return r.completed_transfers > 0 ? r.avg_transfer_cycles
                                             : 0.0;
        };
        std::printf("%-8s %14.0f %14.0f %8llu %8llu\n",
                    group.name.c_str(), fmt(u), fmt(c),
                    static_cast<unsigned long long>(
                        u.completed_transfers),
                    static_cast<unsigned long long>(
                        c.completed_transfers));
    }
    const double left_avg = stats::mean(left_all);
    const double right_avg = stats::mean(right_all);
    std::printf("%-8s %14.0f %14.0f\n", "AVG", left_avg, right_avg);
    if (right_avg > 0.0) {
        // The paper's reference number applies to its own comparison
        // (UCP vs Cooperative) only.
        const bool paper_pair = left == "ucp" && right == "coop";
        std::printf("# %s / %s transfer-time ratio: %.2fx%s\n",
                    schemeLabel(left).c_str(),
                    schemeLabel(right).c_str(), left_avg / right_avg,
                    paper_pair ? " (paper: ~5.8x)" : "");
    }
}

/** The Figure 16 time series: flush traffic vs cycles since a
 *  partitioning decision, first scheme of the axis vs second. */
void
printBandwidthTable(const ExperimentResults &results)
{
    const ExperimentSpec &spec = results.spec();
    const std::string &left = spec.schemes.at(0);
    const std::string &right = spec.schemes.at(1);

    // Aggregate the per-decision flush time series over all groups.
    std::vector<std::uint64_t> left_series;
    std::vector<std::uint64_t> right_series;
    std::uint64_t left_lines = 0;
    std::uint64_t right_lines = 0;
    Tick bin = 1;
    for (const auto &group : results.groups()) {
        Cell left_cell;
        left_cell.group = group.name;
        left_cell.scheme = left;
        Cell right_cell;
        right_cell.group = group.name;
        right_cell.scheme = right;
        const auto &u = results.result(left_cell);
        const auto &c = results.result(right_cell);
        bin = c.flush_series_bin;
        left_series.resize(
            std::max(left_series.size(), u.flush_series.size()), 0);
        right_series.resize(
            std::max(right_series.size(), c.flush_series.size()), 0);
        for (std::size_t i = 0; i < u.flush_series.size(); ++i) {
            left_series[i] += u.flush_series[i];
        }
        for (std::size_t i = 0; i < c.flush_series.size(); ++i) {
            right_series[i] += c.flush_series[i];
        }
        left_lines += u.flushed_lines;
        right_lines += c.flushed_lines;
    }

    std::printf("%s\n", spec.title.c_str());
    std::printf("%-16s %12s %12s\n", "cycles",
                schemeLabel(left).c_str(), schemeLabel(right).c_str());
    for (std::size_t i = 0; i < right_series.size(); ++i) {
        std::printf("%-16llu %12llu %12llu\n",
                    static_cast<unsigned long long>(bin * (i + 1)),
                    static_cast<unsigned long long>(
                        i < left_series.size() ? left_series[i] : 0),
                    static_cast<unsigned long long>(right_series[i]));
    }
    // The paper's per-transition totals apply to its own comparison
    // (UCP vs Cooperative) only.
    const bool paper_pair = left == "ucp" && right == "coop";
    std::printf("# total lines flushed: %s=%llu %s=%llu%s\n",
                schemeLabel(left).c_str(),
                static_cast<unsigned long long>(left_lines),
                schemeLabel(right).c_str(),
                static_cast<unsigned long long>(right_lines),
                paper_pair ? " (paper: 6536 vs 5102 per transition)"
                           : "");
}

} // namespace

void
printTable(const ExperimentResults &results, const MetricFn &metric,
           bool show_ci)
{
    const ExperimentSpec &spec = results.spec();
    const MetricFn &fn =
        metric ? metric : metricRegistry().get(spec.metric);
    if (spec.layout == "schemes") {
        printSchemeTable(results, fn, show_ci);
    } else if (spec.layout == "thresholds") {
        printThresholdTable(results, fn, show_ci);
    } else if (spec.layout == "partitioners") {
        printPartitionerTable(results, fn, show_ci);
    } else if (spec.layout == "takeover") {
        printTakeoverTable(results);
    } else if (spec.layout == "transfers") {
        printTransferTable(results);
    } else if (spec.layout == "bandwidth") {
        printBandwidthTable(results);
    } else {
        COOPSIM_FATAL("spec '", spec.name, "' has layout '",
                      spec.layout,
                      "', which has no built-in table renderer");
    }
}

void
printExperiment(const ExperimentSpec &spec, bool show_ci)
{
    const ExperimentResults results = runExperiment(spec);
    printTable(results, {}, show_ci);

    // Bank-contention summary on stderr (stats channel, like the
    // executor counters): only when a banked run actually queued, so
    // monolithic sweeps keep their stderr byte-identical.
    std::uint64_t conflicts = 0;
    std::uint64_t conflict_cycles = 0;
    // Sampling summary (same channel, same only-when-present rule):
    // total measurement windows and the worst per-app relative CI.
    std::uint64_t windows = 0;
    double max_rel_ci = 0.0;
    for (const sim::RunKey &key : results.keys()) {
        const sim::RunResult &result = results.result(key);
        conflicts += result.bank_conflicts;
        conflict_cycles += result.bank_conflict_cycles;
        windows += result.sample_windows;
        if (result.sample_windows > 0) {
            for (const sim::AppResult &app : result.apps) {
                if (app.ipc > 0.0) {
                    max_rel_ci =
                        std::max(max_rel_ci, app.ipc_ci / app.ipc);
                }
            }
        }
    }
    if (conflicts > 0) {
        std::fprintf(stderr,
                     "# banks: conflicts=%llu conflict_cycles=%llu\n",
                     static_cast<unsigned long long>(conflicts),
                     static_cast<unsigned long long>(conflict_cycles));
    }
    if (windows > 0) {
        std::fprintf(stderr,
                     "# sampling: windows=%llu max_rel_ci=%.4f\n",
                     static_cast<unsigned long long>(windows),
                     max_rel_ci);
    }
}

} // namespace coopsim::api
