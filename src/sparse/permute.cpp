#include "sparse/permute.hpp"

#include <algorithm>

#include "common/prefix.hpp"

namespace blocktri {

template <class T>
Csr<T> permute_symmetric(const Csr<T>& a,
                         const std::vector<index_t>& new_of_old) {
  Csr<T> out;
  permute_symmetric_into(a, new_of_old, &out);
  return out;
}

template <class T>
void permute_symmetric_into(const Csr<T>& a,
                            const std::vector<index_t>& new_of_old,
                            Csr<T>* out_ptr) {
  BLOCKTRI_CHECK(a.nrows == a.ncols);
  BLOCKTRI_CHECK(new_of_old.size() == static_cast<std::size_t>(a.nrows));
  BLOCKTRI_CHECK_MSG(is_permutation_of_iota(new_of_old),
                     "new_of_old is not a permutation");
  const std::vector<index_t> old_of_new = invert_permutation(new_of_old);

  Csr<T>& out = *out_ptr;
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
  template void permute_symmetric_into(const Csr<T>&,                     \
                                       const std::vector<index_t>&,       \
                                       Csr<T>*);                          \
  template std::vector<T> permute_vector(const std::vector<T>&,           \
                                         const std::vector<index_t>&);    \
  template std::vector<T> unpermute_vector(const std::vector<T>&,         \
                                           const std::vector<index_t>&);

BLOCKTRI_INSTANTIATE(float)
BLOCKTRI_INSTANTIATE(double)
#undef BLOCKTRI_INSTANTIATE

}  // namespace blocktri
