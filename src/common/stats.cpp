#include "common/stats.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace coopsim::stats
{

void
Average::sample(double value, double weight)
{
    sum_ += value * weight;
    const double new_weight = weight_ + weight;
    if (weight > 0.0) {
        const double delta = value - wmean_;
        wmean_ += delta * (weight / new_weight);
        m2_ += weight * delta * (value - wmean_);
    }
    weight_ = new_weight;
    ++count_;
}

void
Average::reset()
{
    sum_ = 0.0;
    weight_ = 0.0;
    wmean_ = 0.0;
    m2_ = 0.0;
    count_ = 0;
}

double
Average::mean() const
{
    return weight_ > 0.0 ? sum_ / weight_ : 0.0;
}

double
Average::variance() const
{
    return weight_ > 0.0 && count_ > 1 ? m2_ / weight_ : 0.0;
}

double
Average::sampleVariance() const
{
    // Frequency-weight correction: with unit weights this is the
    // familiar m2 / (n - 1).
    if (count_ < 2 || weight_ <= 0.0) {
        return 0.0;
    }
    const double n = static_cast<double>(count_);
    const double denom = weight_ * (n - 1.0) / n;
    return denom > 0.0 ? m2_ / denom : 0.0;
}

double
Average::stdError() const
{
    if (count_ < 2) {
        return 0.0;
    }
    return std::sqrt(sampleVariance() /
                     static_cast<double>(count_));
}

TimeSeries::TimeSeries(Tick bin_width, std::size_t bins)
    : bin_width_(bin_width == 0 ? 1 : bin_width), counts_(bins, 0)
{
}

void
TimeSeries::configure(Tick bin_width, std::size_t bins)
{
    COOPSIM_ASSERT(bin_width > 0, "zero bin width");
    bin_width_ = bin_width;
    counts_.assign(bins, 0);
    total_ = 0;
}

void
TimeSeries::record(Tick offset, std::uint64_t count)
{
    if (counts_.empty()) {
        return;
    }
    std::size_t bin = static_cast<std::size_t>(offset / bin_width_);
    if (bin >= counts_.size()) {
        bin = counts_.size() - 1;
    }
    counts_[bin] += count;
    total_ += count;
}

void
TimeSeries::reset()
{
    counts_.assign(counts_.size(), 0);
    total_ = 0;
}

std::uint64_t
TimeSeries::bin(std::size_t i) const
{
    COOPSIM_ASSERT(i < counts_.size(), "time series bin out of range");
    return counts_[i];
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (double v : values) {
        COOPSIM_ASSERT(v > 0.0, "geomean of non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (double v : values) {
        sum += v;
    }
    return sum / static_cast<double>(values.size());
}

} // namespace coopsim::stats
