/**
 * @file
 * The semantics of every Ziria expression operator, defined once.
 *
 * This one header is shared by every execution path: the closure VM
 * (zexpr/compile_expr.cc, which the fused interpreter reuses), the
 * constant folder (zopt/fold.cc), the native function registry
 * (zexpr/natives.cc), and every translation unit the native backend
 * generates — zcgen/emit.cc embeds this file's text verbatim as the
 * unit's preamble (see the generate step in src/CMakeLists.txt).  So a
 * rule written here cannot drift between backends.
 *
 * It must stay self-contained: no repo includes, valid C++17 (the JIT's
 * `-std=c++17`) and C++20 (the library).
 *
 * Conventions:
 *  - integral values travel as int64_t holding the value of their kind,
 *    sign-extended; `w` is the kind's width in bits (1 for bit/bool,
 *    else 8, 16, 32 or 64).  Callers pass `w` as a literal wherever they
 *    can, so the switches fold away at -O2;
 *  - arithmetic is done in unsigned types and wraps at the result width
 *    (two's complement), so overflow is defined behaviour;
 *  - complex values travel as ZrC32; `cw` is the component width (16 or
 *    32).  Complex16 arithmetic is done at 32 bits and each component is
 *    truncated to 16 bits when stored;
 *  - traps call back through ZrCtx (trapMsg / trapIndex / trapSlice).
 *    The host implements them by throwing FatalError, so they do not
 *    return; the values returned after a trap are never observed.
 *
 * docs/LANGUAGE.md, "Arithmetic", states these rules for users.
 */
#ifndef ZIRIA_ZEXPR_ZR_SEM_H
#define ZIRIA_ZEXPR_ZR_SEM_H

#include <cmath>
#include <cstdint>
#include <cstring>

// Forced inline: a generated unit makes thousands of these calls, and
// inlining them before the optimizer's cost model runs keeps the JIT's
// compile time close to that of open-coded operators.
#define ZR_INLINE inline __attribute__((always_inline))

// -----------------------------------------------------------------------
// The host <-> generated-code ABI (zcgen/abi.h)
// -----------------------------------------------------------------------

/** Bump on any change to ZrCtx; the loader checks each unit's zr_abi. */
constexpr int kZrAbiVersion = 2;

extern "C" {

/**
 * A region's whole state plus the host callback table.  FusedNode keeps
 * its pc, spaces and out/ctrl pointers here; its bytecode interpreter
 * and the generated `zr_region_<i>` read and write the same fields.
 */
struct ZrCtx
{
    uint8_t* fr;            ///< pipeline frame base
    uint8_t* st;            ///< region-private state block
    int64_t* regs;          ///< integer registers
    uint32_t* chProdPc;     ///< per-channel producer continuation
    uint32_t* chConsPc;     ///< per-channel consumer continuation
    uint8_t* chFull;        ///< per-channel occupancy flag
    uint32_t pc;            ///< parked program counter
    uint32_t pad_;
    uint64_t spins;         ///< repeat livelock guard
    const uint8_t* outPtr;  ///< last yielded element
    const uint8_t* ctrlPtr; ///< control value after Done
    uint64_t ctrlWidth;     ///< mutated by the Ctrl instruction

    void* host;             ///< the owning FusedNode
    void (*hostInto)(void* host, int32_t idx, uint8_t* dst);
    int64_t (*hostInt)(void* host, int32_t idx);
    void (*hostAction)(void* host, int32_t idx);
    void (*trapMsg)(void* host, const char* msg);
    void (*trapIndex)(void* host, int64_t k, int64_t n);
    void (*trapSlice)(void* host, int64_t k, int64_t kEnd, int64_t n);
};

/** Signature of a generated region entry point. */
typedef int (*ZrRegionFn)(ZrCtx*);

} // extern "C"

// -----------------------------------------------------------------------
// Integers: load, store, truncation, operators
// -----------------------------------------------------------------------

/** Truncate @p v to width @p w and sign-extend (bit/bool keep bit 0). */
ZR_INLINE int64_t
zr_trunc(int w, int64_t v)
{
    switch (w) {
      case 1: return v & 1;
      case 8: return static_cast<int8_t>(v);
      case 16: return static_cast<int16_t>(v);
      case 32: return static_cast<int32_t>(v);
      default: return v;
    }
}

ZR_INLINE int64_t
zr_wrap(int w, uint64_t v)
{
    return zr_trunc(w, static_cast<int64_t>(v));
}

ZR_INLINE int64_t
zr_ld(int w, const uint8_t* p)
{
    switch (w) {
      case 1: return *p;
      case 8: {
        int8_t v;
        std::memcpy(&v, p, 1);
        return v;
      }
      case 16: {
        int16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case 32: {
        int32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
      default: {
        int64_t v;
        std::memcpy(&v, p, 8);
        return v;
      }
    }
}

ZR_INLINE void
zr_st(int w, uint8_t* p, int64_t v)
{
    switch (w) {
      case 1: *p = static_cast<uint8_t>(v & 1); return;
      case 8: {
        int8_t x = static_cast<int8_t>(v);
        std::memcpy(p, &x, 1);
        return;
      }
      case 16: {
        int16_t x = static_cast<int16_t>(v);
        std::memcpy(p, &x, 2);
        return;
      }
      case 32: {
        int32_t x = static_cast<int32_t>(v);
        std::memcpy(p, &x, 4);
        return;
      }
      default:
        std::memcpy(p, &v, 8);
        return;
    }
}

ZR_INLINE int64_t
zr_add(int w, int64_t a, int64_t b)
{
    return zr_wrap(w, static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}

ZR_INLINE int64_t
zr_sub(int w, int64_t a, int64_t b)
{
    return zr_wrap(w, static_cast<uint64_t>(a) - static_cast<uint64_t>(b));
}

ZR_INLINE int64_t
zr_mul(int w, int64_t a, int64_t b)
{
    return zr_wrap(w, static_cast<uint64_t>(a) * static_cast<uint64_t>(b));
}

ZR_INLINE int64_t
zr_neg(int w, int64_t a)
{
    return zr_wrap(w, 0 - static_cast<uint64_t>(a));
}

ZR_INLINE int64_t
zr_bnot(int w, int64_t a)
{
    return zr_trunc(w, ~a);
}

ZR_INLINE void
zr_trap(const ZrCtx* zc, const char* msg)
{
    zc->trapMsg(zc->host, msg);
}

/** Traps on a zero divisor; `MIN / -1` wraps to MIN. */
ZR_INLINE int64_t
zr_div(const ZrCtx* zc, int w, int64_t a, int64_t b)
{
    if (b == 0) {
        zr_trap(zc, "division by zero");
        return 0;
    }
    if (b == -1)
        return zr_neg(w, a);
    return zr_trunc(w, a / b);
}

/** Traps on a zero divisor; `x % -1` is 0. */
ZR_INLINE int64_t
zr_rem(const ZrCtx* zc, int w, int64_t a, int64_t b)
{
    if (b == 0) {
        zr_trap(zc, "remainder by zero");
        return 0;
    }
    if (b == -1)
        return 0;
    return zr_trunc(w, a % b);
}

/** Counts outside [0, w) shift every bit out: the result is 0. */
ZR_INLINE int64_t
zr_shl(int w, int64_t a, int64_t s)
{
    if (s < 0 || s >= w)
        return 0;
    return zr_wrap(w, static_cast<uint64_t>(a) << s);
}

/** Arithmetic; a negative count gives 0, a count >= w the sign fill. */
ZR_INLINE int64_t
zr_shr(int w, int64_t a, int64_t s)
{
    if (s < 0)
        return 0;
    if (s >= w)
        return a < 0 ? -1 : 0;
    return a >> s;
}

/**
 * double -> integer: truncate toward zero, then wrap to width @p w.  A
 * non-finite value gives 0; a finite value outside the int64 range gives
 * INT64_MIN before the wrap (what x86's cvttsd2si produces).
 */
ZR_INLINE int64_t
zr_d2i(int w, double v)
{
    if (!std::isfinite(v))
        return 0;
    if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0))
        return zr_trunc(w, INT64_MIN);
    return zr_trunc(w, static_cast<int64_t>(v));
}

ZR_INLINE double
zr_ldd(const uint8_t* p)
{
    double v;
    std::memcpy(&v, p, 8);
    return v;
}

ZR_INLINE void
zr_std(uint8_t* p, double v)
{
    std::memcpy(p, &v, 8);
}

// -----------------------------------------------------------------------
// Bounds checks and the repeat livelock guard
// -----------------------------------------------------------------------

ZR_INLINE void
zr_check_index(const ZrCtx* zc, int64_t k, int64_t n)
{
    if (k < 0 || k >= n)
        zc->trapIndex(zc->host, k, n);
}

/** [k, k + len) must lie within [0, n); len <= n always holds. */
ZR_INLINE void
zr_check_slice(const ZrCtx* zc, int64_t k, int64_t len, int64_t n)
{
    if (k < 0 || k > n - len)
        zc->trapSlice(zc->host, k, zr_add(64, k, len), n);
}

/**
 * Count one completion of a repeat body that neither took nor emitted;
 * 2^20 in a row is a livelock.  The caller zeroes @p spins on any I/O.
 */
ZR_INLINE void
zr_spin(const ZrCtx* zc, uint64_t* spins)
{
    if (++*spins > (UINT64_C(1) << 20))
        zr_trap(zc, "repeat: body completed 2^20 times without taking or "
                    "emitting (livelock)");
}

// -----------------------------------------------------------------------
// Complex numbers
// -----------------------------------------------------------------------

struct ZrC32
{
    int32_t re, im;
};

ZR_INLINE int32_t
zr_w32(uint32_t v)
{
    return static_cast<int32_t>(v);
}

ZR_INLINE uint32_t
zr_u32(int32_t v)
{
    return static_cast<uint32_t>(v);
}

ZR_INLINE ZrC32
zr_ldc(int cw, const uint8_t* p)
{
    if (cw == 16) {
        int16_t re, im;
        std::memcpy(&re, p, 2);
        std::memcpy(&im, p + 2, 2);
        return ZrC32{re, im};
    }
    ZrC32 c;
    std::memcpy(&c, p, 8);
    return c;
}

/** Store; complex16 keeps the low 16 bits of each component. */
ZR_INLINE void
zr_stc(int cw, uint8_t* p, ZrC32 v)
{
    if (cw == 16) {
        int16_t re = static_cast<int16_t>(v.re);
        int16_t im = static_cast<int16_t>(v.im);
        std::memcpy(p, &re, 2);
        std::memcpy(p + 2, &im, 2);
    } else {
        std::memcpy(p, &v, 8);
    }
}

ZR_INLINE ZrC32
zr_cadd(ZrC32 a, ZrC32 b)
{
    return ZrC32{zr_w32(zr_u32(a.re) + zr_u32(b.re)),
                 zr_w32(zr_u32(a.im) + zr_u32(b.im))};
}

ZR_INLINE ZrC32
zr_csub(ZrC32 a, ZrC32 b)
{
    return ZrC32{zr_w32(zr_u32(a.re) - zr_u32(b.re)),
                 zr_w32(zr_u32(a.im) - zr_u32(b.im))};
}

ZR_INLINE ZrC32
zr_cmul(ZrC32 a, ZrC32 b)
{
    return ZrC32{zr_w32(zr_u32(a.re) * zr_u32(b.re) -
                        zr_u32(a.im) * zr_u32(b.im)),
                 zr_w32(zr_u32(a.re) * zr_u32(b.im) +
                        zr_u32(a.im) * zr_u32(b.re))};
}

ZR_INLINE ZrC32
zr_cneg(ZrC32 a)
{
    return ZrC32{zr_w32(0 - zr_u32(a.re)), zr_w32(0 - zr_u32(a.im))};
}

/** Complex shifts use the count modulo 32, per component. */
ZR_INLINE ZrC32
zr_cshl(ZrC32 a, int64_t s)
{
    int n = static_cast<int>(s & 31);
    return ZrC32{zr_w32(zr_u32(a.re) << n), zr_w32(zr_u32(a.im) << n)};
}

ZR_INLINE ZrC32
zr_cshr(ZrC32 a, int64_t s)
{
    int n = static_cast<int>(s & 31);
    return ZrC32{a.re >> n, a.im >> n};
}

/** Complex division (and any other operator) is a run-time trap. */
ZR_INLINE ZrC32
zr_cunsupported(const ZrCtx* zc)
{
    zr_trap(zc, "complex operator not supported");
    return ZrC32{0, 0};
}

ZR_INLINE int32_t
zr_sat16(int32_t v)
{
    return v > 32767 ? 32767 : (v < -32768 ? -32768 : v);
}

/** The complex -> complex16 cast saturates each component. */
ZR_INLINE ZrC32
zr_csat16(ZrC32 a)
{
    return ZrC32{zr_sat16(a.re), zr_sat16(a.im)};
}

// -----------------------------------------------------------------------
// Native expression functions (registered by zexpr/natives.cc)
// -----------------------------------------------------------------------
//
// Each takes its argument bytes in parameter order and writes the
// result bytes; the signature equals NativeFn.

ZR_INLINE void
zr_nat_sin(const uint8_t* const* a, uint8_t* r)
{
    zr_std(r, std::sin(zr_ldd(a[0])));
}

ZR_INLINE void
zr_nat_cos(const uint8_t* const* a, uint8_t* r)
{
    zr_std(r, std::cos(zr_ldd(a[0])));
}

ZR_INLINE void
zr_nat_sqrt(const uint8_t* const* a, uint8_t* r)
{
    zr_std(r, std::sqrt(zr_ldd(a[0])));
}

ZR_INLINE void
zr_nat_exp(const uint8_t* const* a, uint8_t* r)
{
    zr_std(r, std::exp(zr_ldd(a[0])));
}

ZR_INLINE void
zr_nat_log(const uint8_t* const* a, uint8_t* r)
{
    zr_std(r, std::log(zr_ldd(a[0])));
}

ZR_INLINE void
zr_nat_atan2(const uint8_t* const* a, uint8_t* r)
{
    zr_std(r, std::atan2(zr_ldd(a[0]), zr_ldd(a[1])));
}

/** (complex16 a, complex16 b, int32 shift) -> (a*b) >> (shift & 31). */
ZR_INLINE void
zr_nat_cmul16(const uint8_t* const* a, uint8_t* r)
{
    ZrC32 p = zr_cmul(zr_ldc(16, a[0]), zr_ldc(16, a[1]));
    zr_stc(16, r, zr_cshr(p, zr_ld(32, a[2])));
}

/** (complex16 a, complex16 b, int32 shift) -> (a*conj(b)) >> shift. */
ZR_INLINE void
zr_nat_cmul_conj16(const uint8_t* const* a, uint8_t* r)
{
    ZrC32 y = zr_ldc(16, a[1]);
    ZrC32 p = zr_cmul(zr_ldc(16, a[0]), ZrC32{y.re, -y.im});
    zr_stc(16, r, zr_cshr(p, zr_ld(32, a[2])));
}

/** complex16 -> int32 re^2 + im^2, wrapping ((-2^15)^2 * 2 = INT32_MIN). */
ZR_INLINE void
zr_nat_cabs2(const uint8_t* const* a, uint8_t* r)
{
    ZrC32 x = zr_ldc(16, a[0]);
    zr_st(32, r, zr_w32(zr_u32(x.re) * zr_u32(x.re) +
                        zr_u32(x.im) * zr_u32(x.im)));
}

ZR_INLINE void
zr_nat_conj16(const uint8_t* const* a, uint8_t* r)
{
    ZrC32 x = zr_ldc(16, a[0]);
    zr_stc(16, r, ZrC32{x.re, -x.im});
}

ZR_INLINE void
zr_nat_cadd32(const uint8_t* const* a, uint8_t* r)
{
    zr_stc(32, r, zr_cadd(zr_ldc(32, a[0]), zr_ldc(32, a[1])));
}

/** int32 -> int16, saturating. */
ZR_INLINE void
zr_nat_sat16(const uint8_t* const* a, uint8_t* r)
{
    zr_st(16, r, zr_sat16(static_cast<int32_t>(zr_ld(32, a[0]))));
}

ZR_INLINE void
zr_nat_creal(const uint8_t* const* a, uint8_t* r)
{
    std::memcpy(r, a[0], 2);
}

ZR_INLINE void
zr_nat_cimag(const uint8_t* const* a, uint8_t* r)
{
    std::memcpy(r, a[0] + 2, 2);
}

ZR_INLINE void
zr_nat_mk_complex16(const uint8_t* const* a, uint8_t* r)
{
    std::memcpy(r, a[0], 2);
    std::memcpy(r + 2, a[1], 2);
}

typedef void (*ZrNativeFn)(const uint8_t* const* a, uint8_t* r);

/** Every native by surface name; generated code calls zr_nat_<name>. */
struct ZrNative
{
    const char* name;
    ZrNativeFn fn;
};

inline constexpr ZrNative kZrNatives[] = {
    {"sin", zr_nat_sin},
    {"cos", zr_nat_cos},
    {"sqrt", zr_nat_sqrt},
    {"exp", zr_nat_exp},
    {"log", zr_nat_log},
    {"atan2", zr_nat_atan2},
    {"cmul16", zr_nat_cmul16},
    {"cmul_conj16", zr_nat_cmul_conj16},
    {"cabs2", zr_nat_cabs2},
    {"conj16", zr_nat_conj16},
    {"cadd32", zr_nat_cadd32},
    {"sat16", zr_nat_sat16},
    {"creal", zr_nat_creal},
    {"cimag", zr_nat_cimag},
    {"mk_complex16", zr_nat_mk_complex16},
};

/** The native named @p name, or null. */
ZR_INLINE ZrNativeFn
zr_native(const char* name)
{
    for (const ZrNative& n : kZrNatives) {
        if (std::strcmp(n.name, name) == 0)
            return n.fn;
    }
    return nullptr;
}

#endif // ZIRIA_ZEXPR_ZR_SEM_H
