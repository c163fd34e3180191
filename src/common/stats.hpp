/**
 * @file
 * Statistics primitives: scalar counters, distributions, and binned
 * time series, grouped into named, dumpable StatGroups.
 *
 * The statistics layer is deliberately simple: everything is a double
 * or uint64_t updated inline by the simulation hot paths, with
 * formatting kept entirely out of the fast path.
 */

#ifndef COOPSIM_COMMON_STATS_HPP
#define COOPSIM_COMMON_STATS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace coopsim::stats
{

/** Monotone event counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Accumulates a weighted mean (e.g. ways probed per access) plus a
 * numerically stable running variance (West's weighted extension of
 * Welford's algorithm). mean() keeps the original sum/weight form so
 * results that were computed from it stay bit-identical; the Welford
 * mean is a separate accumulator used only by the variance terms.
 */
class Average
{
  public:
    void sample(double value, double weight = 1.0);
    void reset();
    double mean() const;
    double weight() const { return weight_; }
    std::uint64_t count() const { return count_; }

    /** Population variance (weighted; 0 with fewer than 2 samples). */
    double variance() const;
    /** Unbiased sample variance with frequency weights. */
    double sampleVariance() const;
    /** Standard error of the mean: sqrt(sampleVariance / count). */
    double stdError() const;

  private:
    double sum_ = 0.0;
    double weight_ = 0.0;
    double wmean_ = 0.0;
    double m2_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Events bucketed by simulation time — used for the paper's Figure 16
 * (flushed lines vs. cycles since a partitioning decision).
 */
class TimeSeries
{
  public:
    /** @param bin_width Cycles per bin. @param bins Number of bins. */
    TimeSeries(Tick bin_width = 1, std::size_t bins = 0);

    void configure(Tick bin_width, std::size_t bins);
    /** Records @p count events at @p offset cycles from the origin. */
    void record(Tick offset, std::uint64_t count = 1);
    void reset();

    Tick binWidth() const { return bin_width_; }
    std::size_t bins() const { return counts_.size(); }
    std::uint64_t bin(std::size_t i) const;
    std::uint64_t total() const { return total_; }

  private:
    Tick bin_width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/** A named collection of formatted statistics for dumping. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);

    void add(const std::string &key, double value);
    void add(const std::string &key, std::uint64_t value);

    const std::string &name() const { return name_; }
    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }

    /** Renders "group.key value" lines. */
    std::string format() const;

  private:
    std::string name_;
    std::map<std::string, std::string> entries_;
};

/** Geometric mean of a vector of strictly positive values. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean (0 when empty). */
double mean(const std::vector<double> &values);

} // namespace coopsim::stats

#endif // COOPSIM_COMMON_STATS_HPP
