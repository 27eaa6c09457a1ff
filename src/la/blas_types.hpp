// Shared BLAS-style option enums.
//
// Split out of blas.hpp so both the loop-based routines (la/blas.hpp) and the
// packed micro-kernel engine (la/microkernel.hpp) can use them without a
// circular include: blas.hpp dispatches into the engine, and the engine only
// needs views + these tags.
#pragma once

namespace tqr::la {

enum class Trans { kNoTrans, kTrans };
enum class UpLo { kUpper, kLower };
enum class Diag { kUnit, kNonUnit };

}  // namespace tqr::la
