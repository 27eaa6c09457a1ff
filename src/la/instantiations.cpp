// Explicit instantiations of the la templates for the supported scalar
// types. The headers declare the kernels' instantiations extern (the
// TQR_LA_*_TEMPLATES lists), so downstream targets link against these
// compiled kernels instead of re-instantiating them in every translation
// unit.
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

TQR_LA_BLAS_TEMPLATES(, float)
TQR_LA_BLAS_TEMPLATES(, double)
TQR_LA_KERNEL_TEMPLATES(, float)
TQR_LA_KERNEL_TEMPLATES(, double)
TQR_LA_CHECK_TEMPLATES(, float)
TQR_LA_CHECK_TEMPLATES(, double)

}  // namespace tqr::la
