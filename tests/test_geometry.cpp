// Geometry substrate tests: Vec2 arithmetic, Disk/Aabb predicates, and the
// spatial grid checked property-style against brute force.
#include <gtest/gtest.h>

#include <cmath>

#include "geometry/disk.h"
#include "geometry/spatial_grid.h"
#include "geometry/vec2.h"
#include "workload/rng.h"

namespace rfid::geom {
namespace {

TEST(Vec2, ArithmeticAndNorm) {
  const Vec2 a{3.0, 4.0};
  const Vec2 b{1.0, -2.0};
  EXPECT_EQ((a + b), (Vec2{4.0, 2.0}));
  EXPECT_EQ((a - b), (Vec2{2.0, 6.0}));
  EXPECT_EQ((a * 2.0), (Vec2{6.0, 8.0}));
  EXPECT_EQ((2.0 * a), (Vec2{6.0, 8.0}));
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
}

TEST(Vec2, DistanceMatchesDefinition2) {
  // ‖v_i − v_j‖ = sqrt((x_i−x_j)² + (y_i−y_j)²)
  EXPECT_DOUBLE_EQ(dist({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(dist2({1, 1}, {4, 5}), 25.0);
  EXPECT_DOUBLE_EQ(dist({-3, -4}, {0, 0}), 5.0);
}

TEST(Vec2, CompoundAssignment) {
  Vec2 v{1.0, 1.0};
  v += {2.0, 3.0};
  EXPECT_EQ(v, (Vec2{3.0, 4.0}));
  v -= {1.0, 1.0};
  EXPECT_EQ(v, (Vec2{2.0, 3.0}));
  v *= 2.0;
  EXPECT_EQ(v, (Vec2{4.0, 6.0}));
}

TEST(Disk, ContainsIsClosed) {
  const Disk d{{0.0, 0.0}, 2.0};
  EXPECT_TRUE(d.contains({2.0, 0.0}));   // boundary point counts
  EXPECT_TRUE(d.contains({0.0, 0.0}));
  EXPECT_FALSE(d.contains({2.0 + 1e-9, 0.0}));
}

TEST(Disk, DiskDiskIntersection) {
  const Disk a{{0.0, 0.0}, 1.0};
  EXPECT_TRUE(a.intersects(Disk{{2.0, 0.0}, 1.0}));   // touching counts
  EXPECT_TRUE(a.intersects(Disk{{1.0, 0.0}, 1.0}));
  EXPECT_FALSE(a.intersects(Disk{{2.5, 0.0}, 1.0}));
  EXPECT_TRUE(a.intersects(Disk{{0.1, 0.1}, 0.01}));  // nested
}

TEST(Disk, StrictlyInsideBox) {
  const Aabb box{{0.0, 0.0}, {10.0, 10.0}};
  EXPECT_TRUE((Disk{{5.0, 5.0}, 2.0}).strictlyInside(box));
  // Touching the boundary is NOT strictly inside (PTAS survive predicate).
  EXPECT_FALSE((Disk{{2.0, 5.0}, 2.0}).strictlyInside(box));
  EXPECT_FALSE((Disk{{5.0, 9.5}, 1.0}).strictlyInside(box));
  EXPECT_FALSE((Disk{{11.0, 5.0}, 0.5}).strictlyInside(box));
}

TEST(Disk, DiskBoxIntersection) {
  const Aabb box{{0.0, 0.0}, {4.0, 4.0}};
  EXPECT_TRUE((Disk{{2.0, 2.0}, 0.5}).intersects(box));   // inside
  EXPECT_TRUE((Disk{{-1.0, 2.0}, 1.5}).intersects(box));  // crosses edge
  EXPECT_TRUE((Disk{{5.0, 5.0}, 1.5}).intersects(box));   // corner graze
  EXPECT_FALSE((Disk{{5.5, 5.5}, 1.0}).intersects(box));  // corner miss
  EXPECT_FALSE((Disk{{-2.0, 2.0}, 1.0}).intersects(box));
}

TEST(Aabb, ContainsAndIntersects) {
  const Aabb a{{0, 0}, {2, 2}};
  const Aabb b{{1, 1}, {3, 3}};
  const Aabb c{{2, 2}, {3, 3}};  // shares corner point
  const Aabb d{{2.1, 0}, {3, 1}};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(a.intersects(c));
  EXPECT_FALSE(a.intersects(d));
  EXPECT_TRUE(a.contains({1, 1}));
  EXPECT_TRUE(a.contains({2, 2}));
  EXPECT_FALSE(a.contains({2.5, 1}));
  EXPECT_DOUBLE_EQ(b.width(), 2.0);
  EXPECT_DOUBLE_EQ(b.height(), 2.0);
}

TEST(SpatialGrid, EmptyPointSet) {
  const SpatialGrid grid({}, 1.0);
  EXPECT_EQ(grid.size(), 0);
  EXPECT_TRUE(grid.queryDisk({0, 0}, 100.0).empty());
}

TEST(SpatialGrid, SinglePointHitAndMiss) {
  const std::vector<Vec2> pts = {{5.0, 5.0}};
  const SpatialGrid grid(pts, 2.0);
  EXPECT_EQ(grid.queryDisk({5.0, 5.0}, 0.0), (std::vector<int>{0}));
  EXPECT_EQ(grid.queryDisk({4.0, 5.0}, 1.0), (std::vector<int>{0}));
  EXPECT_TRUE(grid.queryDisk({0.0, 0.0}, 1.0).empty());
}

TEST(SpatialGrid, NegativeCoordinates) {
  const std::vector<Vec2> pts = {{-5.0, -5.0}, {-4.5, -5.0}, {5.0, 5.0}};
  const SpatialGrid grid(pts, 1.0);
  EXPECT_EQ(grid.queryDisk({-5.0, -5.0}, 0.6), (std::vector<int>{0, 1}));
}

// Property: grid query equals brute-force scan for random points/queries,
// across cell sizes smaller and larger than the query radius.
class SpatialGridProperty : public ::testing::TestWithParam<double> {};

TEST_P(SpatialGridProperty, MatchesBruteForce) {
  const double cell = GetParam();
  workload::Rng rng(12345);
  std::vector<Vec2> pts;
  for (int i = 0; i < 400; ++i) {
    pts.push_back({rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)});
  }
  const SpatialGrid grid(pts, cell);
  for (int q = 0; q < 50; ++q) {
    const Vec2 c{rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)};
    const double r = rng.uniform(0.0, 20.0);
    std::vector<int> expected;
    for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
      if (dist2(pts[static_cast<std::size_t>(i)], c) <= r * r) expected.push_back(i);
    }
    EXPECT_EQ(grid.queryDisk(c, r), expected)
        << "cell=" << cell << " query " << q;
  }
}

// Radii up to 10⁶ cell widths: a disk whose box spans more cells than the
// grid occupies is answered from the occupied cells, with the same sorted
// result as the brute-force scan.
TEST_P(SpatialGridProperty, HugeRadiiMatchBruteForce) {
  const double cell = GetParam();
  workload::Rng rng(54321);
  std::vector<Vec2> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)});
  }
  const SpatialGrid grid(pts, cell);
  for (int q = 0; q < 60; ++q) {
    const Vec2 c{rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)};
    const double r = cell * std::pow(10.0, rng.uniform(-1.0, 6.0));
    std::vector<int> expected;
    for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
      if (dist2(pts[static_cast<std::size_t>(i)], c) <= r * r) expected.push_back(i);
    }
    EXPECT_EQ(grid.queryDisk(c, r), expected)
        << "cell=" << cell << " radius=" << r << " query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, SpatialGridProperty,
                         ::testing::Values(0.5, 1.0, 4.0, 25.0));

TEST(SpatialGrid, AppendingOverloadKeepsExistingContents) {
  const std::vector<Vec2> pts = {{0.0, 0.0}, {1.0, 0.0}};
  const SpatialGrid grid(pts, 1.0);
  std::vector<int> out = {99};
  grid.queryDisk({0.0, 0.0}, 0.5, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 99);
  EXPECT_EQ(out[1], 0);
}

}  // namespace
}  // namespace rfid::geom
