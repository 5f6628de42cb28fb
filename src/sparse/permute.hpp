// Symmetric permutation P·A·Pᵀ — the structural core of the improved
// recursive block layout (§3.3): every triangular part is reordered by its
// level-set order, rows and columns together, so the matrix stays lower
// triangular and dependencies stay "behind" each component.
#pragma once

#include "sparse/formats.hpp"

namespace blocktri {

/// Applies the symmetric permutation described by `new_of_old`:
/// entry (i, j) of `a` lands at (new_of_old[i], new_of_old[j]).
/// Output rows/columns are sorted. O(nnz + n).
template <class T>
Csr<T> permute_symmetric(const Csr<T>& a, const std::vector<index_t>& new_of_old);

/// The value map of a symmetric permutation onto a known pattern. `row_ptr`
/// and `col_idx` describe rows [row_begin, row_begin + row_ptr.size() - 1)
/// of P·A·Pᵀ with sorted rows (a permute_symmetric result, or a row slice of
/// one). On success stored row r comes from row (*src_row)[r] of `a`, and
/// the entry at position p of that row from offset (*src_off)[p] within it,
/// so permuting new values with the same pattern is the gather
/// val[p] = a.val[a.row_ptr[src_row[r]] + src_off[p]] (4 bytes per row and
/// per entry: an offset within a row is below n). Every entry of the covered
/// rows is compared once: returns false, with both maps cleared, unless A's
/// permuted rows have exactly that pattern. Duplicate entries map in stored
/// order. O(nnz of the rows + n).
template <class T>
bool permute_source_map(const Csr<T>& a,
                        const std::vector<index_t>& new_of_old,
                        index_t row_begin,
                        const std::vector<offset_t>& row_ptr,
                        const std::vector<index_t>& col_idx,
                        std::vector<index_t>* src_row,
                        std::vector<index_t>* src_off);

/// Permutes a dense vector to match permute_symmetric:
/// out[new_of_old[i]] = v[i].
template <class T>
std::vector<T> permute_vector(const std::vector<T>& v,
                              const std::vector<index_t>& new_of_old);

/// Inverse of permute_vector: out[i] = v[new_of_old[i]].
template <class T>
std::vector<T> unpermute_vector(const std::vector<T>& v,
                                const std::vector<index_t>& new_of_old);

}  // namespace blocktri
