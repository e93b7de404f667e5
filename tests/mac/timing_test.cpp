#include "mac/timing.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mmw::mac {
namespace {

TEST(TimingTest, ZeroMeasurementsIsFree) {
  ProtocolTiming t;
  EXPECT_DOUBLE_EQ(t.alignment_latency_us(0, 1), 0.0);
}

TEST(TimingTest, LatencyFormula) {
  ProtocolTiming t;
  // 16 measurements in 2 slots: 16·(10 + 0.5) + 2·(25 + 50) = 318 µs.
  EXPECT_DOUBLE_EQ(t.alignment_latency_us(16, 2), 318.0);
}

TEST(TimingTest, LatencyValidation) {
  ProtocolTiming t;
  EXPECT_THROW(t.alignment_latency_us(5, 0), precondition_error);
  EXPECT_THROW(t.alignment_latency_us(2, 3), precondition_error);
}

TEST(TimingTest, OverheadFractionClamped) {
  ProtocolTiming t;
  // Huge alignment cost in a tiny frame saturates at 1.
  EXPECT_DOUBLE_EQ(t.overhead_fraction(1000, 100, 1.0), 1.0);
  EXPECT_GT(t.overhead_fraction(16, 2, 10000.0), 0.0);
  EXPECT_LT(t.overhead_fraction(16, 2, 10000.0), 1.0);
  EXPECT_THROW(t.overhead_fraction(16, 2, 0.0), precondition_error);
}

TEST(TimingTest, NetSpectralEfficiency) {
  ProtocolTiming t;
  // 100 measurements in 10 slots = 100·10.5 + 10·75 = 1800 µs in an
  // 18000 µs frame → 10% overhead.
  const real eff = t.net_spectral_efficiency(100, 10, 18000.0, 3.0);
  EXPECT_NEAR(eff, 0.9 * 2.0, 1e-12);  // log2(4) = 2
  EXPECT_THROW(t.net_spectral_efficiency(1, 1, 100.0, -1.0),
               precondition_error);
}

TEST(TimingTest, FewerMeasurementsMeansMoreThroughput) {
  ProtocolTiming t;
  const real cheap = t.net_spectral_efficiency(100, 13, 20000.0, 100.0);
  const real expensive = t.net_spectral_efficiency(1024, 128, 20000.0, 100.0);
  EXPECT_GT(cheap, expensive);
}

}  // namespace
}  // namespace mmw::mac
