// Out-of-line pieces of the micro-kernel engine: the explicit instantiations
// downstream targets link against, and the ISA metadata the bench JSON
// records alongside GFLOP/s numbers.
#include "la/microkernel.hpp"

namespace tqr::la::mk {

const char* isa_name() {
#if !TQR_MK_VECTORIZED
  return "scalar";
#elif defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(__x86_64__)
  return "sse2";
#else
  return "generic-vector";
#endif
}

template void gemm_packed<float>(Trans, Trans, float, ConstMatrixView<float>,
                                 ConstMatrixView<float>, float,
                                 MatrixView<float>, const Blocking&);
template void gemm_packed<double>(Trans, Trans, double,
                                  ConstMatrixView<double>,
                                  ConstMatrixView<double>, double,
                                  MatrixView<double>, const Blocking&);
template void trmm_packed<float>(UpLo, Trans, Diag, float,
                                 ConstMatrixView<float>, ConstMatrixView<float>,
                                 float, MatrixView<float>, const Blocking&);
template void trmm_packed<double>(UpLo, Trans, Diag, double,
                                  ConstMatrixView<double>,
                                  ConstMatrixView<double>, double,
                                  MatrixView<double>, const Blocking&);

}  // namespace tqr::la::mk
