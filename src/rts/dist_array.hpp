#pragma once
// DistArray<T>: the per-processor piece of a distributed array, together
// with its DAD.  This is what the generated SPMD node program manipulates:
// each processor allocates only its local chunk (plus overlap/ghost areas,
// ref. [16] in the paper) and addresses it through the DAD's global<->local
// index algebra.
#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "comm/grid_comm.hpp"
#include "rts/dad.hpp"

namespace f90d::rts {

template <typename T>
class DistArray {
 public:
  /// Allocate the local chunk for the processor at `my_coords` (zero-filled).
  DistArray(Dad dad, std::vector<int> my_coords)
      : dad_(std::move(dad)), coords_(std::move(my_coords)) {
    require(static_cast<int>(coords_.size()) == dad_.grid().ndims(),
            "DistArray: coords rank matches grid");
    const int r = dad_.rank();
    lext_.resize(static_cast<size_t>(r));
    aext_.resize(static_cast<size_t>(r));
    for (int d = 0; d < r; ++d) {
      const int c = coord_along(d);
      lext_[static_cast<size_t>(d)] = dad_.local_extent(d, c);
      aext_[static_cast<size_t>(d)] = lext_[static_cast<size_t>(d)] +
                                      dad_.dim(d).overlap_lo +
                                      dad_.dim(d).overlap_hi;
    }
    strides_.assign(static_cast<size_t>(r), 1);
    for (int d = r - 2; d >= 0; --d)
      strides_[static_cast<size_t>(d)] =
          strides_[static_cast<size_t>(d + 1)] * aext_[static_cast<size_t>(d + 1)];
    Index total = r == 0 ? 1 : strides_[0] * aext_[0];
    data_.assign(static_cast<size_t>(total), T{});
  }

  /// Convenience: construct from the grid position of a GridComm.
  DistArray(Dad dad, const comm::GridComm& gc)
      : DistArray(std::move(dad), gc.my_coords()) {}

  [[nodiscard]] const Dad& dad() const { return dad_; }
  [[nodiscard]] int rank() const { return dad_.rank(); }
  [[nodiscard]] const std::vector<int>& coords() const { return coords_; }
  [[nodiscard]] Index local_extent(int d) const {
    return lext_[static_cast<size_t>(d)];
  }
  [[nodiscard]] Index alloc_extent(int d) const {
    return aext_[static_cast<size_t>(d)];
  }
  [[nodiscard]] std::vector<T>& storage() { return data_; }
  [[nodiscard]] const std::vector<T>& storage() const { return data_; }

  /// Grid coordinate of this processor along array dimension d's grid dim
  /// (0 for collapsed dimensions).
  [[nodiscard]] int coord_along(int d) const {
    const DimMap& m = dad_.dim(d);
    return m.kind == DistKind::kCollapsed
               ? 0
               : coords_[static_cast<size_t>(m.grid_dim)];
  }

  /// Local element access.  `l` is in owned-local coordinates; ghost cells
  /// are addressed with l in [-overlap_lo, local_extent + overlap_hi).
  [[nodiscard]] T& at_local(std::span<const Index> l) {
    return data_[static_cast<size_t>(flat_local(l))];
  }
  [[nodiscard]] const T& at_local(std::span<const Index> l) const {
    return data_[static_cast<size_t>(flat_local(l))];
  }

  /// Does this processor own the global element?
  [[nodiscard]] bool owns_global(std::span<const Index> g) const {
    for (int d = 0; d < rank(); ++d)
      if (!dad_.owns(d, g[static_cast<size_t>(d)], coord_along(d))) return false;
    return true;
  }

  /// Access a global element that is either owned or lies in this
  /// processor's overlap (ghost) area after an overlap_shift.  Ghost access
  /// requires BLOCK (or collapsed) dimensions with unit alignment stride.
  [[nodiscard]] T& at_global_ghost(std::span<const Index> g) {
    idx_scratch_.resize(static_cast<size_t>(rank()));
    for (int d = 0; d < rank(); ++d) {
      const DimMap& m = dad_.dim(d);
      const Index gd = g[static_cast<size_t>(d)];
      if (m.kind == DistKind::kCollapsed) {
        idx_scratch_[static_cast<size_t>(d)] = gd;
        continue;
      }
      const int c = coord_along(d);
      if (dad_.owns(d, gd, c)) {
        idx_scratch_[static_cast<size_t>(d)] = dad_.local_of_global(d, gd);
        continue;
      }
      require(m.kind == DistKind::kBlock && m.align_stride == 1,
              "ghost access needs BLOCK with unit alignment stride");
      require(local_extent(d) > 0, "ghost access on a non-empty block");
      const Index g_first = dad_.global_of_local(d, 0, c);
      idx_scratch_[static_cast<size_t>(d)] = gd - g_first;
    }
    return at_local(idx_scratch_);
  }

  /// Access an owned global element.
  [[nodiscard]] T& at_global(std::span<const Index> g) {
    idx_scratch_.resize(static_cast<size_t>(rank()));
    for (int d = 0; d < rank(); ++d)
      idx_scratch_[static_cast<size_t>(d)] =
          dad_.local_of_global(d, g[static_cast<size_t>(d)]);
    return at_local(idx_scratch_);
  }

  /// Global index of a local element.
  [[nodiscard]] std::vector<Index> global_of_local(
      std::span<const Index> l) const {
    std::vector<Index> g(static_cast<size_t>(rank()));
    for (int d = 0; d < rank(); ++d)
      g[static_cast<size_t>(d)] =
          dad_.global_of_local(d, l[static_cast<size_t>(d)], coord_along(d));
    return g;
  }

  /// Visit every owned element in owned-local row-major order:
  /// f(global_indices, element_ref).  The walk goes row by row (a row is
  /// the innermost dimension): each dimension's global indices are looked
  /// up once per walk, the allocation range is checked once per row, and
  /// the innermost loop only steps a pointer and one table entry.
  template <typename F>
  void for_each_owned(F&& f) {
    const int r = rank();
    if (local_size() == 0) return;
    std::vector<Index> g(static_cast<size_t>(r));
    if (r == 0) {
      f(g, data_[0]);
      return;
    }
    const auto tab = global_tables(dim_coords(coords_), lext_);
    const std::vector<Index>& inner = tab[static_cast<size_t>(r - 1)];
    for_each_row(lext_, [&](const std::vector<Index>& l) {
      for (size_t d = 0; d + 1 < g.size(); ++d)
        g[d] = tab[d][static_cast<size_t>(l[d])];
      T* row = &at_local(l);
      for (size_t j = 0; j < inner.size(); ++j) {
        g[static_cast<size_t>(r - 1)] = inner[j];
        f(g, row[j]);
      }
    });
  }

  /// Initialize owned elements from a function of the global indices: any
  /// callable taking std::span<const Index> whose result converts to T
  /// (called directly, never re-wrapped in a std::function).
  template <typename F>
  void fill_global(F&& f) {
    for_each_owned([&](const std::vector<Index>& g, T& v) {
      v = static_cast<T>(f(std::span<const Index>(g)));
    });
  }

  /// Number of owned elements on this processor.
  [[nodiscard]] Index local_size() const {
    Index n = 1;
    for (Index e : lext_) n *= e;
    return n;
  }

  /// Collect the full global array (row-major over global extents) on every
  /// processor.  Used by tests/oracles and by the gather-based intrinsics
  /// (PACK/UNPACK/RESHAPE fall into the paper's "unstructured" category).
  [[nodiscard]] std::vector<T> gather_global(comm::GridComm& gc) {
    struct Pair {
      Index flat;
      T value;
    };
    std::vector<Pair> mine;
    mine.reserve(static_cast<size_t>(local_size()));
    for_each_owned([&](const std::vector<Index>& g, T& v) {
      mine.push_back(Pair{flat_global(g), v});
    });
    std::vector<Pair> all =
        gc.concat_all<Pair>(std::span<const Pair>(mine));
    std::vector<T> out(static_cast<size_t>(dad_.global_size()), T{});
    for (const Pair& p : all) out[static_cast<size_t>(p.flat)] = p.value;
    return out;
  }

  /// Collect the full global array on logical processor 0 only (row-major
  /// over global extents); every other processor returns an empty vector.
  /// Ships raw values in owned-local row-major order — half the bytes of
  /// the {index,value} pairs gather_global sends, and no broadcast leg —
  /// and the root reconstructs each sender's global indices from the DAD.
  /// Collective: every processor must call it at the same program point.
  /// A fully replicated array is processor 0's own copy: nothing is packed
  /// or sent anywhere else.
  [[nodiscard]] std::vector<T> gather_global_root(comm::GridComm& gc) {
    const bool replicated = dad_.fully_replicated();
    if (replicated && gc.my_logical() != 0) return {};
    std::vector<T> mine;
    mine.reserve(static_cast<size_t>(local_size()));
    if (local_size() > 0) {
      // Pack owned values a whole row at a time; the sender never needs
      // global indices.
      const size_t n = rank() == 0 ? 1 : static_cast<size_t>(lext_.back());
      for_each_row(lext_, [&](const std::vector<Index>& l) {
        const T* row = &at_local(l);
        mine.insert(mine.end(), row, row + n);
      });
    }
    std::vector<T> out;
    if (gc.my_logical() == 0)
      out.assign(static_cast<size_t>(dad_.global_size()), T{});
    if (replicated) {
      place_block(gc.grid().coords_of(0), mine, out);
      return out;
    }
    gc.gather_root<T>(std::span<const T>(mine),
                      [&](int logical, std::span<const T> blk) {
                        place_block(gc.grid().coords_of(logical), blk, out);
                      });
    return out;
  }

  /// Row-major flattening of a global index vector.
  [[nodiscard]] Index flat_global(std::span<const Index> g) const {
    Index flat = 0;
    for (int d = 0; d < rank(); ++d)
      flat = flat * dad_.extent(d) + g[static_cast<size_t>(d)];
    return flat;
  }

 private:
  /// Scatter one processor's owned block (values in owned-local row-major
  /// order, as packed by gather_global_root) into the full global array.
  /// `gcoords` are that processor's grid coordinates; its local extents and
  /// global indices are recomputed here from the DAD alone, mirroring the
  /// sender's walk order.  Each row is copied as runs of consecutive
  /// global indices (a whole row for BLOCK, k elements for CYCLIC(k)).
  void place_block(const std::vector<int>& gcoords, std::span<const T> blk,
                   std::vector<T>& out) const {
    const int r = rank();
    const std::vector<int> coords = dim_coords(gcoords);
    std::vector<Index> ext(static_cast<size_t>(r));
    Index total = 1;
    for (int d = 0; d < r; ++d) {
      ext[static_cast<size_t>(d)] =
          dad_.local_extent(d, coords[static_cast<size_t>(d)]);
      total *= ext[static_cast<size_t>(d)];
    }
    require(static_cast<Index>(blk.size()) == total,
            "gathered block matches the sender's owned extent");
    if (total == 0) return;
    if (r == 0) {
      out[0] = blk[0];
      return;
    }
    const auto tab = global_tables(coords, ext);
    // Global row-major strides, and the innermost row cut into runs of
    // consecutive global indices: (first local index, length).
    std::vector<Index> gstride(static_cast<size_t>(r), 1);
    for (int d = r - 2; d >= 0; --d)
      gstride[static_cast<size_t>(d)] =
          gstride[static_cast<size_t>(d + 1)] * dad_.extent(d + 1);
    const std::vector<Index>& inner = tab[static_cast<size_t>(r - 1)];
    std::vector<std::pair<size_t, size_t>> runs;
    for (size_t j = 0; j < inner.size(); ++j) {
      if (j > 0 && inner[j] == inner[j - 1] + 1)
        ++runs.back().second;
      else
        runs.emplace_back(j, 1);
    }
    const T* src = blk.data();
    for_each_row(ext, [&](const std::vector<Index>& l) {
      Index base = 0;
      for (size_t d = 0; d + 1 < tab.size(); ++d)
        base += tab[d][static_cast<size_t>(l[d])] * gstride[d];
      for (const auto& [j, len] : runs)
        std::copy_n(src + j, len,
                    out.begin() + static_cast<std::ptrdiff_t>(base + inner[j]));
      src += inner.size();
    });
  }

  /// Grid coordinate along each array dimension (0 for collapsed ones) of
  /// the processor at grid coordinates `gcoords`.
  [[nodiscard]] std::vector<int> dim_coords(
      const std::vector<int>& gcoords) const {
    std::vector<int> c(static_cast<size_t>(rank()), 0);
    for (int d = 0; d < rank(); ++d)
      if (dad_.dim(d).kind != DistKind::kCollapsed)
        c[static_cast<size_t>(d)] =
            gcoords[static_cast<size_t>(dad_.dim(d).grid_dim)];
    return c;
  }

  /// Per-dimension global index tables of the processor at per-dimension
  /// coordinates `coords` owning extents `ext`:
  /// tab[d][l] == dad.global_of_local(d, l, coords[d]).
  [[nodiscard]] std::vector<std::vector<Index>> global_tables(
      std::span<const int> coords, std::span<const Index> ext) const {
    std::vector<std::vector<Index>> tab(static_cast<size_t>(rank()));
    for (int d = 0; d < rank(); ++d) {
      std::vector<Index>& t = tab[static_cast<size_t>(d)];
      t.resize(static_cast<size_t>(ext[static_cast<size_t>(d)]));
      for (size_t l = 0; l < t.size(); ++l)
        t[l] = dad_.global_of_local(d, static_cast<Index>(l),
                                    coords[static_cast<size_t>(d)]);
    }
    return tab;
  }

  /// Visit the rows of the row-major index space `ext` (every extent > 0)
  /// in order: row(l) with l[rank-1] == 0 (one call for rank 0).
  template <typename Fn>
  static void for_each_row(std::span<const Index> ext, Fn&& row) {
    const int r = static_cast<int>(ext.size());
    std::vector<Index> l(ext.size(), 0);
    for (;;) {
      row(l);
      int d = r - 2;
      for (; d >= 0; --d) {
        if (++l[static_cast<size_t>(d)] < ext[static_cast<size_t>(d)]) break;
        l[static_cast<size_t>(d)] = 0;
      }
      if (d < 0) break;
    }
  }

  [[nodiscard]] Index flat_local(std::span<const Index> l) const {
    Index flat = 0;
    for (int d = 0; d < rank(); ++d) {
      const Index shifted = l[static_cast<size_t>(d)] + dad_.dim(d).overlap_lo;
      require(shifted >= 0 && shifted < aext_[static_cast<size_t>(d)],
              "local index within allocated extent (incl. overlap)");
      flat += shifted * strides_[static_cast<size_t>(d)];
    }
    return flat;
  }

  Dad dad_;
  std::vector<int> coords_;
  std::vector<Index> lext_;     // owned local extents
  std::vector<Index> aext_;     // allocated extents (owned + overlap)
  std::vector<Index> strides_;  // row-major strides over aext_
  std::vector<T> data_;
  std::vector<Index> idx_scratch_;
};

}  // namespace f90d::rts
