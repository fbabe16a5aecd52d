#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace pblpar::stats {
namespace {

TEST(QuantileTest, EndpointsAreTheExtremes) {
  const std::vector<double> sample{7.0, -2.0, 4.5, 11.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(sample, 0.0), -2.0);
  EXPECT_DOUBLE_EQ(quantile(sample, 1.0), 11.0);
}

TEST(QuantileTest, InterpolatesBetweenOrderStatistics) {
  // Sorted: 1 2 3 4; h = 3q.
  const std::vector<double> sample{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(sample, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(sample, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile(sample, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(quantile(sample, 1.0 / 3.0), 2.0);
  // Odd n: the median is the middle order statistic exactly.
  const std::vector<double> odd{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(odd, 0.5), 5.0);
}

TEST(QuantileTest, SingleSampleIsEveryQuantile) {
  const std::vector<double> one{3.25};
  EXPECT_DOUBLE_EQ(quantile(one, 0.0), 3.25);
  EXPECT_DOUBLE_EQ(quantile(one, 0.5), 3.25);
  EXPECT_DOUBLE_EQ(quantile(one, 0.99), 3.25);
  EXPECT_DOUBLE_EQ(quantile(one, 1.0), 3.25);
}

TEST(QuantileTest, RejectsEmptySampleAndOutOfRangeQ) {
  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), util::PreconditionError);
  const std::vector<double> sample{1.0, 2.0};
  EXPECT_THROW(quantile(sample, -0.01), util::PreconditionError);
  EXPECT_THROW(quantile(sample, 1.01), util::PreconditionError);
  EXPECT_THROW(quantile(sample, std::numeric_limits<double>::quiet_NaN()),
               util::PreconditionError);
}

}  // namespace
}  // namespace pblpar::stats
