#pragma once

#include <cstddef>
#include <span>
#include <string>

namespace pblpar::stats {

/// Basic descriptive statistics of one sample.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double sd = 0.0;        // sample standard deviation (n-1 denominator)
  double variance = 0.0;  // sample variance
  double min = 0.0;
  double max = 0.0;

  /// Standard error of the mean.
  double standard_error() const;

  std::string to_string() const;
};

/// Summarize a sample (requires at least one observation; sd is 0 for a
/// single observation).
Summary summarize(std::span<const double> sample);

/// Arithmetic mean (requires non-empty sample).
double mean_of(std::span<const double> sample);

/// Sample standard deviation, n-1 denominator (requires n >= 2).
double sample_sd(std::span<const double> sample);

/// The q-quantile of a sample, q in [0, 1], by linear interpolation
/// between order statistics: with the sample sorted, position
/// h = (n-1)q lands between x[floor(h)] and x[floor(h)+1]. q = 0 is the
/// minimum, q = 1 the maximum, q = 0.5 the median. Requires a non-empty
/// sample; the input need not be sorted.
double quantile(std::span<const double> sample, double q);

}  // namespace pblpar::stats
