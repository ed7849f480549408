// Tests for the cluster model: Table 2/3 presets, ordering, memory scaling.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "platform/cluster.hpp"

namespace dagpm::platform {
namespace {

TEST(Cluster, Table2DefaultKinds) {
  const auto kinds = machineKinds(Heterogeneity::kDefault);
  ASSERT_EQ(kinds.size(), 6u);
  // (local,4,16) (A1,32,32) (A2,6,64) (N1,12,16) (N2,8,8) (C2,32,192).
  EXPECT_EQ(kinds[0].kind, "local");
  EXPECT_DOUBLE_EQ(kinds[0].speed, 4.0);
  EXPECT_DOUBLE_EQ(kinds[0].memory, 16.0);
  EXPECT_EQ(kinds[5].kind, "C2");
  EXPECT_DOUBLE_EQ(kinds[5].speed, 32.0);
  EXPECT_DOUBLE_EQ(kinds[5].memory, 192.0);
  EXPECT_DOUBLE_EQ(kinds[4].memory, 8.0);  // N2: very small memory
}

TEST(Cluster, Table3MoreHetDoublesExtremes) {
  const auto kinds = machineKinds(Heterogeneity::kMore);
  // local*: (2, 8); C2*: (64, 384).
  EXPECT_DOUBLE_EQ(kinds[0].speed, 2.0);
  EXPECT_DOUBLE_EQ(kinds[0].memory, 8.0);
  EXPECT_DOUBLE_EQ(kinds[5].speed, 64.0);
  EXPECT_DOUBLE_EQ(kinds[5].memory, 384.0);
}

TEST(Cluster, Table3LessHetKeepsBiggestMemoryAt192) {
  const auto kinds = machineKinds(Heterogeneity::kLess);
  double maxMem = 0.0;
  for (const auto& k : kinds) maxMem = std::max(maxMem, k.memory);
  EXPECT_DOUBLE_EQ(maxMem, 192.0);
  // C2' speed reduced to 16.
  EXPECT_DOUBLE_EQ(kinds[5].speed, 16.0);
}

TEST(Cluster, NoHetIsAllC2) {
  const auto kinds = machineKinds(Heterogeneity::kNone);
  for (const auto& k : kinds) {
    EXPECT_EQ(k.kind, "C2");
    EXPECT_DOUBLE_EQ(k.speed, 32.0);
    EXPECT_DOUBLE_EQ(k.memory, 192.0);
  }
}

TEST(Cluster, SizesGive18And36And60Processors) {
  EXPECT_EQ(makeCluster(Heterogeneity::kDefault, ClusterSize::kSmall)
                .numProcessors(),
            18u);
  EXPECT_EQ(makeCluster(Heterogeneity::kDefault, ClusterSize::kDefault)
                .numProcessors(),
            36u);
  EXPECT_EQ(makeCluster(Heterogeneity::kDefault, ClusterSize::kLarge)
                .numProcessors(),
            60u);
}

TEST(Cluster, ByDecreasingMemoryOrdering) {
  const Cluster c = makeCluster(Heterogeneity::kDefault, 1);
  const auto order = c.byDecreasingMemory();
  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(c.memory(order[i - 1]), c.memory(order[i]));
  }
  EXPECT_DOUBLE_EQ(c.memory(order.front()), 192.0);
  EXPECT_DOUBLE_EQ(c.memory(order.back()), 8.0);
}

TEST(Cluster, MinMaxAccessors) {
  const Cluster c = makeCluster(Heterogeneity::kDefault, 2);
  EXPECT_DOUBLE_EQ(c.largestMemory(), 192.0);
  EXPECT_DOUBLE_EQ(c.smallestMemory(), 8.0);
  EXPECT_DOUBLE_EQ(c.fastestSpeed(), 32.0);
}

TEST(Cluster, ScaleMemoriesToFitGrowsProportionally) {
  Cluster c = makeCluster(Heterogeneity::kDefault, 1);
  const double factor = c.scaleMemoriesToFit(384.0);
  EXPECT_DOUBLE_EQ(factor, 2.0);
  EXPECT_DOUBLE_EQ(c.largestMemory(), 384.0);
  EXPECT_DOUBLE_EQ(c.smallestMemory(), 16.0);  // N2 also doubled
}

TEST(Cluster, ScaleMemoriesNoOpWhenFitting) {
  Cluster c = makeCluster(Heterogeneity::kDefault, 1);
  EXPECT_DOUBLE_EQ(c.scaleMemoriesToFit(100.0), 1.0);
  EXPECT_DOUBLE_EQ(c.largestMemory(), 192.0);
}

TEST(Cluster, BandwidthStoredAndMutable) {
  Cluster c = makeCluster(Heterogeneity::kDefault, 1, 2.5);
  EXPECT_DOUBLE_EQ(c.bandwidth(), 2.5);
  c.setBandwidth(0.1);
  EXPECT_DOUBLE_EQ(c.bandwidth(), 0.1);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Cluster, RejectsNonPositiveOrNonFiniteSpeeds) {
  for (const double speed : {kNaN, kInf, -kInf, 0.0, -1.0}) {
    EXPECT_THROW(Cluster({{"ok", 2.0, 8.0}, {"bad", speed, 8.0}}, 1.0),
                 std::invalid_argument)
        << "speed " << speed;
  }
}

TEST(Cluster, RejectsNegativeOrNonFiniteMemories) {
  for (const double memory : {kNaN, kInf, -kInf, -1.0}) {
    EXPECT_THROW(Cluster({{"bad", 1.0, memory}}, 1.0), std::invalid_argument)
        << "memory " << memory;
  }
  // A processor without memory is legal: it simply hosts nothing.
  EXPECT_DOUBLE_EQ(Cluster({{"empty", 1.0, 0.0}}, 1.0).memory(0), 0.0);
}

TEST(Cluster, RejectsNonPositiveOrNonFiniteBandwidth) {
  for (const double beta : {kNaN, kInf, -kInf, 0.0, -2.0}) {
    EXPECT_THROW(Cluster({{"p", 1.0, 1.0}}, beta), std::invalid_argument)
        << "bandwidth " << beta;
    EXPECT_THROW(makeCluster(Heterogeneity::kDefault, 1, beta),
                 std::invalid_argument)
        << "bandwidth " << beta;
    Cluster c = makeCluster(Heterogeneity::kDefault, 1, 2.5);
    EXPECT_THROW(c.setBandwidth(beta), std::invalid_argument)
        << "bandwidth " << beta;
    EXPECT_DOUBLE_EQ(c.bandwidth(), 2.5);  // a rejected value is not kept
  }
}

TEST(Cluster, Names) {
  EXPECT_EQ(clusterName(Heterogeneity::kDefault, ClusterSize::kDefault),
            "default-36");
  EXPECT_EQ(clusterName(Heterogeneity::kMore, ClusterSize::kLarge),
            "MoreHet-60");
  EXPECT_EQ(clusterName(Heterogeneity::kNone, ClusterSize::kSmall),
            "NoHet-18");
}

}  // namespace
}  // namespace dagpm::platform
