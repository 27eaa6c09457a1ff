// Explicit instantiations of the la templates for the supported scalar
// types, so downstream targets link against compiled kernels instead of
// re-instantiating them in every translation unit.
#include "la/blas.hpp"
#include "la/checks.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "la/reference_qr.hpp"
#include "la/tiled_matrix.hpp"

namespace tqr::la {

template class Matrix<float>;
template class Matrix<double>;
template class TiledMatrix<float>;
template class TiledMatrix<double>;
template class ReferenceQr<float>;
template class ReferenceQr<double>;

#define TQR_INSTANTIATE_KERNELS(T)                                          \
  template void geqrt<T>(MatrixView<T>, MatrixView<T>, index_t);            \
  template void geqrt_unblocked<T>(MatrixView<T>, MatrixView<T>);           \
  template void unmqr<T>(ConstMatrixView<T>, ConstMatrixView<T>,            \
                         MatrixView<T>, Trans, index_t);                    \
  template void tpqrt<T>(MatrixView<T>, MatrixView<T>, MatrixView<T>,       \
                         index_t, index_t);                                 \
  template void tpqrt_unblocked<T>(MatrixView<T>, MatrixView<T>,            \
                                   MatrixView<T>, index_t);                 \
  template void tpmqrt<T>(ConstMatrixView<T>, ConstMatrixView<T>,           \
                          MatrixView<T>, MatrixView<T>, index_t, Trans,     \
                          index_t);                                         \
  template void gemm<T>(Trans, Trans, T, ConstMatrixView<T>,                \
                        ConstMatrixView<T>, T, MatrixView<T>);              \
  template void trmm_left<T>(UpLo, Trans, Diag, ConstMatrixView<T>,         \
                             MatrixView<T>);                                \
  template void trmm_left<T>(UpLo, Trans, Diag, T, ConstMatrixView<T>,      \
                             ConstMatrixView<T>, T, MatrixView<T>);         \
  template void trsm_left<T>(UpLo, Trans, Diag, ConstMatrixView<T>,         \
                             MatrixView<T>);                                \
  template double norm_frobenius<T>(ConstMatrixView<T>);                    \
  template double orthogonality_residual<T>(ConstMatrixView<T>);            \
  template double reconstruction_residual<T>(                               \
      ConstMatrixView<T>, ConstMatrixView<T>, ConstMatrixView<T>);

TQR_INSTANTIATE_KERNELS(float)
TQR_INSTANTIATE_KERNELS(double)

#undef TQR_INSTANTIATE_KERNELS

}  // namespace tqr::la
