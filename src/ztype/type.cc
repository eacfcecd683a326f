#include "ztype/type.h"

#include <sstream>

#include "support/panic.h"

namespace ziria {

namespace {

size_t
scalarWidth(TypeKind k)
{
    switch (k) {
      case TypeKind::Unit:
        return 0;
      case TypeKind::Bool:
      case TypeKind::Bit:
      case TypeKind::Int8:
        return 1;
      case TypeKind::Int16:
        return 2;
      case TypeKind::Int32:
      case TypeKind::Complex16:
        return 4;
      case TypeKind::Int64:
      case TypeKind::Double:
      case TypeKind::Complex32:
        return 8;
      default:
        panic("scalarWidth: not a scalar");
    }
}

TypePtr
makeScalar(TypeKind k)
{
    struct Access : Type
    {
        explicit Access(TypeKind kk) : Type(kk) {}
    };
    return std::make_shared<Access>(k);
}

} // namespace

Type::Type(TypeKind kind) : kind_(kind)
{
    if (isScalar())
        byteWidth_ = scalarWidth(kind);
}

#define ZIRIA_SCALAR_CTOR(fn, kindval)                                      \
    TypePtr Type::fn()                                                      \
    {                                                                       \
        static TypePtr t = makeScalar(TypeKind::kindval);                   \
        return t;                                                           \
    }

ZIRIA_SCALAR_CTOR(unit, Unit)
ZIRIA_SCALAR_CTOR(boolean, Bool)
ZIRIA_SCALAR_CTOR(bit, Bit)
ZIRIA_SCALAR_CTOR(int8, Int8)
ZIRIA_SCALAR_CTOR(int16, Int16)
ZIRIA_SCALAR_CTOR(int32, Int32)
ZIRIA_SCALAR_CTOR(int64, Int64)
ZIRIA_SCALAR_CTOR(real, Double)
ZIRIA_SCALAR_CTOR(complex16, Complex16)
ZIRIA_SCALAR_CTOR(complex32, Complex32)

#undef ZIRIA_SCALAR_CTOR

TypePtr
Type::array(TypePtr elem, int len)
{
    ZIRIA_ASSERT(elem != nullptr);
    ZIRIA_ASSERT(len > 0, "array length must be positive");
    struct Access : Type
    {
        explicit Access() : Type(TypeKind::Array) {}
    };
    auto t = std::make_shared<Access>();
    t->elem_ = std::move(elem);
    t->len_ = len;
    t->byteWidth_ = t->elem_->byteWidth() * static_cast<size_t>(len);
    return t;
}

TypePtr
Type::strct(std::string name,
            std::vector<std::pair<std::string, TypePtr>> fields)
{
    struct Access : Type
    {
        explicit Access() : Type(TypeKind::Struct) {}
    };
    auto t = std::make_shared<Access>();
    t->structName_ = std::move(name);
    t->fields_ = std::move(fields);
    size_t w = 0;
    for (const auto& [fname, ftype] : t->fields_) {
        ZIRIA_ASSERT(ftype != nullptr, "struct field has null type");
        w += ftype->byteWidth();
    }
    t->byteWidth_ = w;
    return t;
}

const TypePtr&
Type::elem() const
{
    ZIRIA_ASSERT(isArray());
    return elem_;
}

int
Type::len() const
{
    ZIRIA_ASSERT(isArray());
    return len_;
}

const std::vector<std::pair<std::string, TypePtr>>&
Type::fields() const
{
    ZIRIA_ASSERT(isStruct());
    return fields_;
}

const std::string&
Type::structName() const
{
    ZIRIA_ASSERT(isStruct());
    return structName_;
}

long
Type::fieldOffset(const std::string& field) const
{
    ZIRIA_ASSERT(isStruct());
    long off = 0;
    for (const auto& [fname, ftype] : fields_) {
        if (fname == field)
            return off;
        off += static_cast<long>(ftype->byteWidth());
    }
    return -1;
}

TypePtr
Type::fieldType(const std::string& field) const
{
    ZIRIA_ASSERT(isStruct());
    for (const auto& [fname, ftype] : fields_) {
        if (fname == field)
            return ftype;
    }
    panicf("struct ", structName_, " has no field ", field);
}

int
intBits(TypeKind k)
{
    switch (k) {
      case TypeKind::Bit:
      case TypeKind::Bool:
        return 1;
      case TypeKind::Int8:
        return 8;
      case TypeKind::Int16:
        return 16;
      case TypeKind::Int32:
        return 32;
      case TypeKind::Int64:
        return 64;
      default:
        panic("intBits: not an integral kind");
    }
}

int
complexBits(TypeKind k)
{
    ZIRIA_ASSERT(k == TypeKind::Complex16 || k == TypeKind::Complex32);
    return k == TypeKind::Complex16 ? 16 : 32;
}

long
Type::bitWidth() const
{
    switch (kind_) {
      case TypeKind::Unit:
        return 0;
      case TypeKind::Bool:
      case TypeKind::Bit:
        return 1;
      case TypeKind::Int8:
        return 8;
      case TypeKind::Int16:
        return 16;
      case TypeKind::Int32:
      case TypeKind::Complex16:
        return 32;
      case TypeKind::Int64:
      case TypeKind::Complex32:
        return 64;
      case TypeKind::Double:
        return -1;
      case TypeKind::Array: {
        long e = elem_->bitWidth();
        return e < 0 ? -1 : e * len_;
      }
      case TypeKind::Struct: {
        long total = 0;
        for (const auto& [fname, ftype] : fields_) {
            (void)fname;
            long f = ftype->bitWidth();
            if (f < 0)
                return -1;
            total += f;
        }
        return total;
      }
    }
    return -1;
}

bool
Type::equals(const Type& other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case TypeKind::Array:
        return len_ == other.len_ && elem_->equals(*other.elem_);
      case TypeKind::Struct: {
        if (fields_.size() != other.fields_.size())
            return false;
        for (size_t i = 0; i < fields_.size(); ++i) {
            if (fields_[i].first != other.fields_[i].first ||
                !fields_[i].second->equals(*other.fields_[i].second)) {
                return false;
            }
        }
        return true;
      }
      default:
        return true;
    }
}

std::string
Type::show() const
{
    switch (kind_) {
      case TypeKind::Unit:
        return "unit";
      case TypeKind::Bool:
        return "bool";
      case TypeKind::Bit:
        return "bit";
      case TypeKind::Int8:
        return "int8";
      case TypeKind::Int16:
        return "int16";
      case TypeKind::Int32:
        return "int";
      case TypeKind::Int64:
        return "int64";
      case TypeKind::Double:
        return "double";
      case TypeKind::Complex16:
        return "complex16";
      case TypeKind::Complex32:
        return "complex32";
      case TypeKind::Array: {
        std::ostringstream os;
        os << "arr[" << len_ << "] " << elem_->show();
        return os.str();
      }
      case TypeKind::Struct:
        return "struct " + structName_;
    }
    return "?";
}

bool
typeEq(const TypePtr& a, const TypePtr& b)
{
    if (!a || !b)
        return a == b;
    return a->equals(*b);
}

std::string
CompType::show() const
{
    std::string a = in ? in->show() : "_";
    std::string b = out ? out->show() : "_";
    if (isComputer)
        return "Zr (C " + (ctrl ? ctrl->show() : "?") + ") " + a + " " + b;
    return "Zr T " + a + " " + b;
}

} // namespace ziria
