// bucket_grid.h — the oracle's own uniform bucket grid (docs/testing.md).
//
// check/ answers its raw-geometry questions (which tags a reader covers,
// which transmitters interfere with a reader) by enumerating the points in
// the grid cells near a query instead of scanning every point.  The grid
// shares no code with geom::SpatialGrid, the Morton order or the bitmap
// rows, so the oracle stays independent of the index it audits.  It only
// proposes candidates: every caller still applies its own exact predicate,
// so a query may offer extra points but must never miss one.  It reads the
// points through an accessor and keeps only the cell offsets and one 32-bit
// index per point, so bucketing a System's tags copies no positions.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/vec2.h"

namespace rfid::check {

class BucketGrid {
 public:
  /// Buckets points 0..count−1, point i at pos(i), into a CSR of cells by
  /// counting sort.  Cells are at least `min_width` wide (the callers'
  /// largest query radius) and at most about twice as many as the points:
  /// a sparse set spread far apart widens the cells instead of allocating
  /// an empty plane.
  template <typename Pos>
  BucketGrid(std::size_t count, Pos&& pos, double min_width) {
    double x1 = 0.0;
    double y1 = 0.0;
    if (count > 0) {
      const geom::Vec2 p = pos(std::size_t{0});
      x0_ = x1 = p.x;
      y0_ = y1 = p.y;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const geom::Vec2 p = pos(i);
      x0_ = std::min(x0_, p.x);
      y0_ = std::min(y0_, p.y);
      x1 = std::max(x1, p.x);
      y1 = std::max(y1, p.y);
    }
    const double wx = x1 - x0_;
    const double wy = y1 - y0_;
    const double np = static_cast<double>(std::max<std::size_t>(count, 1));
    // With w >= sqrt(wx·wy/n) and w >= (wx+wy)/n the cell count
    // (wx/w + 1)(wy/w + 1) stays at most 2n + 1.
    w_ = std::max({min_width, std::sqrt(wx * wy / np), (wx + wy) / np});
    if (std::isfinite(w_) && w_ > 0.0) {
      const double cap = np + 1.0;
      nx_ = static_cast<int>(std::min(std::floor(wx / w_) + 1.0, cap));
      ny_ = static_cast<int>(std::min(std::floor(wy / w_) + 1.0, cap));
    } else {
      w_ = 1.0;  // overflowed extents or all radii zero: one cell holds all
      nx_ = ny_ = 1;
    }
    const auto cellOf = [&](std::size_t i) {
      const geom::Vec2 p = pos(i);
      return static_cast<std::size_t>(lowCell((p.y - y0_) / w_, ny_) * nx_ +
                                      lowCell((p.x - x0_) / w_, nx_));
    };
    // off_[c] counts cell c, then holds its end; filling backwards leaves
    // it at the cell's start with the points ascending inside it.
    off_.assign(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_) + 1, 0);
    for (std::size_t i = 0; i < count; ++i) ++off_[cellOf(i)];
    for (std::size_t c = 1; c < off_.size(); ++c) off_[c] += off_[c - 1];
    idx_.resize(count);
    for (std::size_t i = count; i-- > 0;) {
      idx_[--off_[cellOf(i)]] = static_cast<std::uint32_t>(i);
    }
  }

  /// Calls f(i) for every point in a cell that overlaps the square
  /// [c − r, c + r]², cell by cell and ascending within a cell.  The square
  /// is padded by a relative 2⁻⁴⁰ so a pair that the rounded dist² ≤ r²
  /// test accepts is never outside it.
  template <typename F>
  void forEachNear(geom::Vec2 c, double r, F&& f) const {
    const double pad =
        (std::abs(c.x) + std::abs(c.y) + std::abs(x0_) + std::abs(y0_) + r) *
        0x1p-40;
    const double reach = r + pad;
    const int xlo = lowCell((c.x - reach - x0_) / w_, nx_);
    const int xhi = highCell((c.x + reach - x0_) / w_, nx_);
    const int ylo = lowCell((c.y - reach - y0_) / w_, ny_);
    const int yhi = highCell((c.y + reach - y0_) / w_, ny_);
    for (int cy = ylo; cy <= yhi; ++cy) {
      for (int cx = xlo; cx <= xhi; ++cx) {
        const auto cid = static_cast<std::size_t>(cy * nx_ + cx);
        for (std::uint32_t k = off_[cid]; k < off_[cid + 1]; ++k) {
          f(std::size_t{idx_[k]});
        }
      }
    }
  }

 private:
  /// floor(f) clamped to [0, n−1], in floating point before any cast; the
  /// lower end of a range maps NaN to 0 and the upper end to n−1, so a
  /// query that cannot be placed visits every cell.
  static int lowCell(double f, int n) {
    if (!(f > 0.0)) return 0;
    return f >= n - 1 ? n - 1 : static_cast<int>(f);
  }
  static int highCell(double f, int n) {
    if (!(f < n - 1)) return n - 1;
    return f <= 0.0 ? 0 : static_cast<int>(f);
  }

  double x0_ = 0.0;
  double y0_ = 0.0;
  double w_ = 1.0;
  int nx_ = 1;
  int ny_ = 1;
  std::vector<std::uint32_t> off_;  // nx·ny + 1 cell offsets into idx_
  std::vector<std::uint32_t> idx_;  // point indices, grouped by cell
};

}  // namespace rfid::check
