#include "geometry/spatial_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rfid::geom {

namespace {
std::int64_t cellCoord(double v, double cell_size) {
  return static_cast<std::int64_t>(std::floor(v / cell_size));
}
}  // namespace

SpatialGrid::SpatialGrid(std::span<const Vec2> points, double cell_size)
    : points_(points.begin(), points.end()), cell_size_(cell_size) {
  assert(cell_size > 0.0 && "cell size must be positive");
  cells_.reserve(points_.size());
  for (int i = 0; i < static_cast<int>(points_.size()); ++i) {
    const auto cx = cellCoord(points_[static_cast<std::size_t>(i)].x, cell_size_);
    const auto cy = cellCoord(points_[static_cast<std::size_t>(i)].y, cell_size_);
    cells_[cellKey(cx, cy)].push_back(i);
  }
}

std::uint64_t SpatialGrid::cellKey(std::int64_t cx, std::int64_t cy) {
  // Interleave-free key: pack two 32-bit offsets.  Deployments are bounded
  // (the paper uses a 100×100 region), so 32 bits per axis is ample.
  const auto ux = static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx));
  const auto uy = static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  return (ux << 32) | uy;
}

std::vector<int> SpatialGrid::queryDisk(Vec2 center, double radius) const {
  std::vector<int> out;
  queryDisk(center, radius, out);
  return out;
}

void SpatialGrid::queryDisk(Vec2 center, double radius,
                            std::vector<int>& out) const {
  const std::size_t first = out.size();
  const double r2 = radius * radius;
  const auto keep = [&](int idx) {
    if (dist2(points_[static_cast<std::size_t>(idx)], center) <= r2) {
      out.push_back(idx);
    }
  };
  // A disk whose bounding box spans more cells than the grid has occupied
  // cells is cheaper to answer by scanning the occupied cells than by
  // probing the box.  The box size is counted in floating point, so a huge
  // radius never reaches the int64 cell coordinates below (and a NaN one
  // takes the scan).
  const auto span = [&](double c) {
    return std::floor((c + radius) / cell_size_) -
           std::floor((c - radius) / cell_size_) + 1.0;
  };
  if (!(span(center.x) * span(center.y) <=
        static_cast<double>(cells_.size()))) {
    for (const auto& cell : cells_) {
      for (const int idx : cell.second) keep(idx);
    }
  } else {
    const auto cx0 = cellCoord(center.x - radius, cell_size_);
    const auto cx1 = cellCoord(center.x + radius, cell_size_);
    const auto cy0 = cellCoord(center.y - radius, cell_size_);
    const auto cy1 = cellCoord(center.y + radius, cell_size_);
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
        const auto it = cells_.find(cellKey(cx, cy));
        if (it == cells_.end()) continue;
        for (const int idx : it->second) keep(idx);
      }
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

}  // namespace rfid::geom
