#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "json_check.hpp"
#include "obs/json_util.hpp"

namespace ftsched::obs {
namespace {

// ---------------------------------------------------------------------------
// Bucket boundaries — the "le" (x <= bound) contract, exactly.

TEST(HistogramBucket, ValueOnBoundaryLandsInThatBucket) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  EXPECT_EQ(histogram_bucket(bounds, 1.0), 0u);
  EXPECT_EQ(histogram_bucket(bounds, 2.0), 1u);
  EXPECT_EQ(histogram_bucket(bounds, 4.0), 2u);
}

TEST(HistogramBucket, JustAboveBoundaryMovesToNextBucket) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  EXPECT_EQ(histogram_bucket(bounds, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(histogram_bucket(bounds, std::nextafter(4.0, 8.0)), 3u);
}

TEST(HistogramBucket, BelowFirstBoundIsBucketZero) {
  const std::vector<double> bounds = {1.0, 2.0};
  EXPECT_EQ(histogram_bucket(bounds, 0.5), 0u);
  EXPECT_EQ(histogram_bucket(bounds, -100.0), 0u);
  EXPECT_EQ(histogram_bucket(bounds, -std::numeric_limits<double>::infinity()),
            0u);
}

TEST(HistogramBucket, AboveLastBoundIsOverflow) {
  const std::vector<double> bounds = {1.0, 2.0};
  EXPECT_EQ(histogram_bucket(bounds, 3.0), 2u);
  EXPECT_EQ(histogram_bucket(bounds, std::numeric_limits<double>::infinity()),
            2u);
}

TEST(HistogramBucket, NanLandsInOverflow) {
  const std::vector<double> bounds = {1.0, 2.0};
  EXPECT_EQ(histogram_bucket(bounds, std::nan("")), 2u);
}

TEST(HistogramBucket, EmptyBoundsMeansSingleOverflowBucket) {
  EXPECT_EQ(histogram_bucket({}, 42.0), 0u);
}

// ---------------------------------------------------------------------------
// Snapshot export.

TEST(MetricsSnapshot, JsonIsValidAndInsertionOrderIndependent) {
  const HistogramSnapshot lat{{1.0}, {1, 0}, 1, 0.5};
  MetricsSnapshot a;
  a.add_counter("zeta");
  a.add_counter("alpha", 2);
  a.histograms.emplace("lat", lat);

  MetricsSnapshot b;  // same content, reversed insertion order
  b.histograms.emplace("lat", lat);
  b.add_counter("alpha", 2);
  b.add_counter("zeta");

  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_TRUE(testing::valid_json(a.to_json())) << a.to_json();
  // Lexicographic key order makes the export diffable.
  const std::string json = a.to_json();
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
}

TEST(MetricsSnapshot, EmptySnapshotRendersValidJson) {
  EXPECT_TRUE(testing::valid_json(MetricsSnapshot{}.to_json()));
}

// ---------------------------------------------------------------------------
// JSON helpers (shared by every exporter).

TEST(JsonUtil, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonUtil, NumbersRenderIntegralWithoutFraction) {
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(-2.0), "-2");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::uint64_t{18446744073709551615ull}),
            "18446744073709551615");
}

}  // namespace
}  // namespace ftsched::obs
