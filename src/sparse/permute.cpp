#include "sparse/permute.hpp"

#include <algorithm>

#include "common/prefix.hpp"

namespace blocktri {

template <class T>
Csr<T> permute_symmetric(const Csr<T>& a,
                         const std::vector<index_t>& new_of_old) {
  BLOCKTRI_CHECK(a.nrows == a.ncols);
  BLOCKTRI_CHECK(new_of_old.size() == static_cast<std::size_t>(a.nrows));
  BLOCKTRI_CHECK_MSG(is_permutation_of_iota(new_of_old),
                     "new_of_old is not a permutation");
  const std::vector<index_t> old_of_new = invert_permutation(new_of_old);

  Csr<T> out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.row_ptr.assign(static_cast<std::size_t>(a.nrows) + 1, 0);
  for (index_t ni = 0; ni < a.nrows; ++ni) {
    const index_t oi = old_of_new[static_cast<std::size_t>(ni)];
    out.row_ptr[static_cast<std::size_t>(ni) + 1] = a.row_nnz(oi);
  }
  for (std::size_t i = 1; i < out.row_ptr.size(); ++i)
    out.row_ptr[i] += out.row_ptr[i - 1];

  out.col_idx.resize(static_cast<std::size_t>(a.nnz()));
  out.val.resize(static_cast<std::size_t>(a.nnz()));
  std::vector<std::pair<index_t, T>> rowbuf;
  for (index_t ni = 0; ni < a.nrows; ++ni) {
    const index_t oi = old_of_new[static_cast<std::size_t>(ni)];
    rowbuf.clear();
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(oi)];
         k < a.row_ptr[static_cast<std::size_t>(oi) + 1]; ++k) {
      const index_t oc = a.col_idx[static_cast<std::size_t>(k)];
      rowbuf.emplace_back(new_of_old[static_cast<std::size_t>(oc)],
                          a.val[static_cast<std::size_t>(k)]);
    }
    std::sort(rowbuf.begin(), rowbuf.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    offset_t at = out.row_ptr[static_cast<std::size_t>(ni)];
    for (const auto& [c, v] : rowbuf) {
      out.col_idx[static_cast<std::size_t>(at)] = c;
      out.val[static_cast<std::size_t>(at)] = v;
      ++at;
    }
  }
  return out;
}

template <class T>
bool permute_source_map(const Csr<T>& a,
                        const std::vector<index_t>& new_of_old,
                        index_t row_begin,
                        const std::vector<offset_t>& row_ptr,
                        const std::vector<index_t>& col_idx,
                        std::vector<index_t>* src_row,
                        std::vector<index_t>* src_off) {
  const index_t n = a.nrows;
  const auto rows = static_cast<index_t>(row_ptr.size()) - 1;
  src_row->clear();
  src_off->clear();
  if (a.ncols != n || new_of_old.size() != static_cast<std::size_t>(n) ||
      rows < 0 || row_begin < 0 || row_begin > n - rows ||
      col_idx.size() != static_cast<std::size_t>(row_ptr.back()) ||
      !is_permutation_of_iota(new_of_old))
    return false;
  const std::vector<index_t> old_of_new = invert_permutation(new_of_old);
  src_row->assign(old_of_new.begin() + row_begin,
                  old_of_new.begin() + row_begin + rows);
  src_off->assign(col_idx.size(), -1);
  // slot[c]: the first position of column c in the stored row being mapped.
  // Only positions inside that row are trusted, so it is never reset.
  std::vector<offset_t> slot(static_cast<std::size_t>(n), -1);
  const auto fail = [src_row, src_off] {
    src_row->clear();
    src_off->clear();
    return false;
  };
  for (index_t r = 0; r < rows; ++r) {
    const offset_t lo = row_ptr[static_cast<std::size_t>(r)];
    const offset_t hi = row_ptr[static_cast<std::size_t>(r) + 1];
    const index_t oi = (*src_row)[static_cast<std::size_t>(r)];
    if (a.row_nnz(oi) != hi - lo) return fail();
    for (offset_t p = hi - 1; p >= lo; --p) {
      const index_t c = col_idx[static_cast<std::size_t>(p)];
      if (c < 0 || c >= n) return fail();
      slot[static_cast<std::size_t>(c)] = p;
    }
    const offset_t k0 = a.row_ptr[static_cast<std::size_t>(oi)];
    for (offset_t k = k0; k < a.row_ptr[static_cast<std::size_t>(oi) + 1];
         ++k) {
      const index_t oc = a.col_idx[static_cast<std::size_t>(k)];
      if (oc < 0 || oc >= n) return fail();
      const index_t nc = new_of_old[static_cast<std::size_t>(oc)];
      offset_t p = slot[static_cast<std::size_t>(nc)];
      // A duplicate entry takes the next stored copy of its column.
      while (p >= lo && p < hi && col_idx[static_cast<std::size_t>(p)] == nc &&
             (*src_off)[static_cast<std::size_t>(p)] >= 0)
        ++p;
      if (p < lo || p >= hi || col_idx[static_cast<std::size_t>(p)] != nc)
        return fail();
      (*src_off)[static_cast<std::size_t>(p)] = static_cast<index_t>(k - k0);
    }
  }
  return true;
}

template <class T>
std::vector<T> permute_vector(const std::vector<T>& v,
                              const std::vector<index_t>& new_of_old) {
  BLOCKTRI_CHECK(v.size() == new_of_old.size());
  std::vector<T> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[static_cast<std::size_t>(new_of_old[i])] = v[i];
  return out;
}

template <class T>
std::vector<T> unpermute_vector(const std::vector<T>& v,
                                const std::vector<index_t>& new_of_old) {
  BLOCKTRI_CHECK(v.size() == new_of_old.size());
  std::vector<T> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = v[static_cast<std::size_t>(new_of_old[i])];
  return out;
}

#define BLOCKTRI_INSTANTIATE(T)                                           \
  template Csr<T> permute_symmetric(const Csr<T>&,                        \
                                    const std::vector<index_t>&);         \
  template bool permute_source_map(                                       \
      const Csr<T>&, const std::vector<index_t>&, index_t,                \
      const std::vector<offset_t>&, const std::vector<index_t>&,          \
      std::vector<index_t>*, std::vector<index_t>*);                      \
  template std::vector<T> permute_vector(const std::vector<T>&,           \
                                         const std::vector<index_t>&);    \
  template std::vector<T> unpermute_vector(const std::vector<T>&,         \
                                           const std::vector<index_t>&);

BLOCKTRI_INSTANTIATE(float)
BLOCKTRI_INSTANTIATE(double)
#undef BLOCKTRI_INSTANTIATE

}  // namespace blocktri
