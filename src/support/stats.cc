#include "support/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace branchlab
{

void
Ratio::record(bool hit)
{
    ++total_;
    if (hit)
        ++hits_;
}

void
Ratio::reset()
{
    hits_ = 0;
    total_ = 0;
}

double
Ratio::ratio() const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(hits_) / static_cast<double>(total_);
}

double
Ratio::complement() const
{
    return 1.0 - ratio();
}

void
Ratio::merge(const Ratio &other)
{
    hits_ += other.hits_;
    total_ += other.total_;
}

void
RunningStat::addSample(double value)
{
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
RunningStat::mean() const
{
    return count_ == 0 ? 0.0 : mean_;
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStat::sampleStddev() const
{
    if (count_ < 2)
        return 0.0;
    return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

double
RunningStat::min() const
{
    return count_ == 0 ? 0.0 : min_;
}

double
RunningStat::max() const
{
    return count_ == 0 ? 0.0 : max_;
}

std::string
formatPercent(double fraction, int decimals)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(decimals);
    os << fraction * 100.0 << "%";
    return os.str();
}

std::string
formatFixed(double value, int decimals)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(decimals);
    os << value;
    return os.str();
}

} // namespace branchlab
