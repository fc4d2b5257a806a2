// spatial_grid.h — uniform hash grid over a point set for radius queries.
//
// Weight evaluation (Definition 3) repeatedly asks "which tags lie inside
// this interrogation disk?" and deployment generation asks "which readers
// interfere with this one?".  A uniform grid keyed by integer cell
// coordinates answers both in O(points in the query neighborhood) instead of
// O(n), which matters because the MCS greedy loop evaluates thousands of
// candidate scheduling sets per run.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geometry/vec2.h"

namespace rfid::geom {

/// Immutable spatial index over a fixed point set.
///
/// Build once from the point positions; `queryDisk` then returns the indices
/// of all points within a given radius of a center.  The index never stores
/// copies of the points, only their indices grouped by cell, so it stays
/// cheap for the paper-scale workloads (1200 tags, 50 readers) and scales to
/// the stress workloads used by the microbenchmarks (10^5 points).
class SpatialGrid {
 public:
  /// Constructs an index over `points` with the given cell size.
  ///
  /// `cell_size` should be on the order of the typical query radius; a
  /// query with a much larger radius still works, at worst as a scan of
  /// the occupied cells (never of the empty cells its box spans).
  /// `cell_size` must be > 0.
  SpatialGrid(std::span<const Vec2> points, double cell_size);

  /// Indices of all points p with ‖p − center‖ ≤ radius, in ascending order.
  std::vector<int> queryDisk(Vec2 center, double radius) const;

  /// Appends the query result to `out` instead of allocating (hot path).
  void queryDisk(Vec2 center, double radius, std::vector<int>& out) const;

  /// Number of indexed points.
  int size() const { return static_cast<int>(points_.size()); }

  double cellSize() const { return cell_size_; }

 private:
  static std::uint64_t cellKey(std::int64_t cx, std::int64_t cy);

  std::vector<Vec2> points_;
  double cell_size_;
  // cell -> indices of points inside it
  std::unordered_map<std::uint64_t, std::vector<int>> cells_;
};

}  // namespace rfid::geom
