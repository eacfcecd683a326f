# Writes OUT, a C++ source defining ziria::zcgen::kZrSemText as the text
# of IN (zexpr/zr_sem.h): the preamble of every generated unit.
# Run by the generate step in src/CMakeLists.txt:
#   cmake -DIN=<header> -DOUT=<source> -P embed_sem.cmake
file(READ "${IN}" text)
string(FIND "${text}" ")ZRSEM\"" clash)
if(NOT clash EQUAL -1)
    message(FATAL_ERROR "${IN} contains the raw-string delimiter )ZRSEM\"")
endif()
file(WRITE "${OUT}.tmp"
    "// Generated from ${IN}. Do not edit.\n"
    "namespace ziria {\nnamespace zcgen {\n"
    "extern const char kZrSemText[];\n"
    "const char kZrSemText[] = R\"ZRSEM(${text})ZRSEM\";\n"
    "} // namespace zcgen\n} // namespace ziria\n")
file(RENAME "${OUT}.tmp" "${OUT}")
