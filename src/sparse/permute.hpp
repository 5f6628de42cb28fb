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

/// permute_symmetric into `*out`, reusing its storage: a value refresh of a
/// fixed pattern then allocates nothing for the matrix itself.
template <class T>
void permute_symmetric_into(const Csr<T>& a,
                            const std::vector<index_t>& new_of_old,
                            Csr<T>* out);

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
