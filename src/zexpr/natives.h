/**
 * @file
 * Native expression functions available to Ziria programs.
 *
 * These cover the math primitives (sin, cos, sqrt, atan2 — used by the
 * paper's overhead micro-benchmarks) and the fixed-point complex helpers a
 * PHY implementation needs (scaled complex multiply, conjugate multiply,
 * magnitudes), mirroring the SIMD intrinsics wrappers of the paper's
 * "basic signal processing library".
 *
 * Each registers the matching `zr_nat_*` function of zexpr/zr_sem.h,
 * the body natively generated code calls too.
 */
#ifndef ZIRIA_ZEXPR_NATIVES_H
#define ZIRIA_ZEXPR_NATIVES_H

#include <string>

#include "zast/expr.h"

namespace ziria {
namespace natives {

/** double -> double */
FunRef sinF();
FunRef cosF();
FunRef sqrtF();
FunRef expF();
FunRef logF();

/** (double, double) -> double */
FunRef atan2F();

/** (complex16, complex16, int shift) -> complex16: (a*b) >> shift. */
FunRef cmul16();

/** (complex16, complex16, int shift) -> complex16: (a*conj(b)) >> shift. */
FunRef cmulConj16();

/** complex16 -> int: re^2 + im^2. */
FunRef cabs2_16();

/** complex16 -> complex16: conjugate. */
FunRef conj16();

/** (complex32, complex32) -> complex32 wide add (no saturation). */
FunRef cadd32();

/** int -> int16 saturating narrow. */
FunRef satI16();

/** complex16 -> int16 real part. */
FunRef creal16();

/** complex16 -> int16 imaginary part. */
FunRef cimag16();

/** (int16, int16) -> complex16 constructor. */
FunRef mkC16();

/** Look up a native function by surface name; null if unknown. */
FunRef lookup(const std::string& name);

} // namespace natives
} // namespace ziria

#endif // ZIRIA_ZEXPR_NATIVES_H
