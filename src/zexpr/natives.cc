#include "zexpr/natives.h"

#include "zexpr/zr_sem.h"

namespace ziria {
namespace natives {

FunRef
sinF()
{
    static FunRef f = makeNativeFun("sin", {freshVar("x", Type::real())},
                                    Type::real(), zr_nat_sin);
    return f;
}

FunRef
cosF()
{
    static FunRef f = makeNativeFun("cos", {freshVar("x", Type::real())},
                                    Type::real(), zr_nat_cos);
    return f;
}

FunRef
sqrtF()
{
    static FunRef f = makeNativeFun("sqrt", {freshVar("x", Type::real())},
                                    Type::real(), zr_nat_sqrt);
    return f;
}

FunRef
expF()
{
    static FunRef f = makeNativeFun("exp", {freshVar("x", Type::real())},
                                    Type::real(), zr_nat_exp);
    return f;
}

FunRef
logF()
{
    static FunRef f = makeNativeFun("log", {freshVar("x", Type::real())},
                                    Type::real(), zr_nat_log);
    return f;
}

FunRef
atan2F()
{
    static FunRef f = makeNativeFun(
        "atan2", {freshVar("y", Type::real()), freshVar("x", Type::real())},
        Type::real(), zr_nat_atan2);
    return f;
}

FunRef
cmul16()
{
    static FunRef f = makeNativeFun(
        "cmul16",
        {freshVar("a", Type::complex16()), freshVar("b", Type::complex16()),
         freshVar("shift", Type::int32())},
        Type::complex16(), zr_nat_cmul16);
    return f;
}

FunRef
cmulConj16()
{
    static FunRef f = makeNativeFun(
        "cmul_conj16",
        {freshVar("a", Type::complex16()), freshVar("b", Type::complex16()),
         freshVar("shift", Type::int32())},
        Type::complex16(), zr_nat_cmul_conj16);
    return f;
}

FunRef
cabs2_16()
{
    static FunRef f = makeNativeFun(
        "cabs2", {freshVar("a", Type::complex16())}, Type::int32(),
        zr_nat_cabs2);
    return f;
}

FunRef
conj16()
{
    static FunRef f = makeNativeFun(
        "conj16", {freshVar("a", Type::complex16())}, Type::complex16(),
        zr_nat_conj16);
    return f;
}

FunRef
cadd32()
{
    static FunRef f = makeNativeFun(
        "cadd32",
        {freshVar("a", Type::complex32()),
         freshVar("b", Type::complex32())},
        Type::complex32(), zr_nat_cadd32);
    return f;
}

FunRef
satI16()
{
    static FunRef f = makeNativeFun(
        "sat16", {freshVar("v", Type::int32())}, Type::int16(),
        zr_nat_sat16);
    return f;
}

FunRef
creal16()
{
    static FunRef f = makeNativeFun(
        "creal", {freshVar("a", Type::complex16())}, Type::int16(),
        zr_nat_creal);
    return f;
}

FunRef
cimag16()
{
    static FunRef f = makeNativeFun(
        "cimag", {freshVar("a", Type::complex16())}, Type::int16(),
        zr_nat_cimag);
    return f;
}

FunRef
mkC16()
{
    static FunRef f = makeNativeFun(
        "mk_complex16",
        {freshVar("re", Type::int16()), freshVar("im", Type::int16())},
        Type::complex16(), zr_nat_mk_complex16);
    return f;
}

FunRef
lookup(const std::string& name)
{
    for (FunRef (*make)() :
         {sinF, cosF, sqrtF, expF, logF, atan2F, cmul16, cmulConj16,
          cabs2_16, conj16, cadd32, satI16, creal16, cimag16, mkC16}) {
        if (make()->name == name)
            return make();
    }
    return nullptr;
}

} // namespace natives
} // namespace ziria
