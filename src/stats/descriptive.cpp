#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace pblpar::stats {

double Summary::standard_error() const {
  return n > 0 ? sd / std::sqrt(static_cast<double>(n)) : 0.0;
}

std::string Summary::to_string() const {
  std::ostringstream out;
  out << "n=" << n << " mean=" << mean << " sd=" << sd << " min=" << min
      << " max=" << max;
  return out.str();
}

Summary summarize(std::span<const double> sample) {
  util::require(!sample.empty(), "summarize: sample must be non-empty");
  Summary summary;
  summary.n = sample.size();
  summary.min = sample[0];
  summary.max = sample[0];
  double sum = 0.0;
  for (const double x : sample) {
    sum += x;
    summary.min = std::min(summary.min, x);
    summary.max = std::max(summary.max, x);
  }
  summary.mean = sum / static_cast<double>(sample.size());
  if (sample.size() >= 2) {
    double sum_sq_dev = 0.0;
    for (const double x : sample) {
      const double d = x - summary.mean;
      sum_sq_dev += d * d;
    }
    summary.variance = sum_sq_dev / static_cast<double>(sample.size() - 1);
    summary.sd = std::sqrt(summary.variance);
  }
  return summary;
}

double mean_of(std::span<const double> sample) {
  return summarize(sample).mean;
}

double sample_sd(std::span<const double> sample) {
  util::require(sample.size() >= 2,
                "sample_sd: need at least two observations");
  return summarize(sample).sd;
}

double quantile(std::span<const double> sample, double q) {
  util::require(!sample.empty(), "quantile: sample must be non-empty");
  util::require(q >= 0.0 && q <= 1.0, "quantile: q must lie in [0, 1]");
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const double h = static_cast<double>(sorted.size() - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  if (lo + 1 >= sorted.size()) {
    return sorted[lo];
  }
  return sorted[lo] + (h - static_cast<double>(lo)) *
                          (sorted[lo + 1] - sorted[lo]);
}

}  // namespace pblpar::stats
