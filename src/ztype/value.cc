#include "ztype/value.h"

#include <sstream>

#include "support/panic.h"
#include "zexpr/zr_sem.h"

namespace ziria {

int64_t
readIntRaw(TypeKind k, const uint8_t* p)
{
    return zr_ld(intBits(k), p);
}

void
writeIntRaw(TypeKind k, uint8_t* p, int64_t v)
{
    zr_st(intBits(k), p, v);
}

Value
Value::zeroOf(TypePtr type)
{
    std::vector<uint8_t> bytes(type->byteWidth(), 0);
    return Value(std::move(type), std::move(bytes));
}

Value
Value::unit()
{
    return Value(Type::unit(), {});
}

Value
Value::bit(uint8_t b)
{
    return Value(Type::bit(), {static_cast<uint8_t>(b & 1)});
}

Value
Value::boolean(bool b)
{
    return Value(Type::boolean(), {static_cast<uint8_t>(b ? 1 : 0)});
}

Value
Value::i8(int8_t v)
{
    return intOf(Type::int8(), v);
}

Value
Value::i16(int16_t v)
{
    return intOf(Type::int16(), v);
}

Value
Value::i32(int32_t v)
{
    return intOf(Type::int32(), v);
}

Value
Value::i64(int64_t v)
{
    return intOf(Type::int64(), v);
}

Value
Value::real(double v)
{
    std::vector<uint8_t> b(8);
    std::memcpy(b.data(), &v, 8);
    return Value(Type::real(), std::move(b));
}

Value
Value::c16(int16_t re, int16_t im)
{
    Complex16 c{re, im};
    std::vector<uint8_t> b(4);
    std::memcpy(b.data(), &c, 4);
    return Value(Type::complex16(), std::move(b));
}

Value
Value::c32(int32_t re, int32_t im)
{
    Complex32 c{re, im};
    std::vector<uint8_t> b(8);
    std::memcpy(b.data(), &c, 8);
    return Value(Type::complex32(), std::move(b));
}

Value
Value::intOf(const TypePtr& type, int64_t v)
{
    ZIRIA_ASSERT(type->isIntegral());
    std::vector<uint8_t> b(type->byteWidth(), 0);
    writeIntRaw(type->kind(), b.data(), v);
    return Value(type, std::move(b));
}

Value
Value::arrayOf(const TypePtr& elem, const std::vector<Value>& xs)
{
    ZIRIA_ASSERT(!xs.empty(), "arrayOf: empty array");
    TypePtr t = Type::array(elem, static_cast<int>(xs.size()));
    std::vector<uint8_t> bytes;
    bytes.reserve(t->byteWidth());
    for (const auto& x : xs) {
        ZIRIA_ASSERT(typeEq(x.type(), elem), "arrayOf: element type");
        bytes.insert(bytes.end(), x.bytes().begin(), x.bytes().end());
    }
    return Value(std::move(t), std::move(bytes));
}

Value
Value::bitArray(const std::vector<uint8_t>& bits)
{
    ZIRIA_ASSERT(!bits.empty());
    TypePtr t = Type::array(Type::bit(), static_cast<int>(bits.size()));
    std::vector<uint8_t> bytes;
    bytes.reserve(bits.size());
    for (uint8_t b : bits)
        bytes.push_back(b & 1);
    return Value(std::move(t), std::move(bytes));
}

int64_t
Value::asInt() const
{
    ZIRIA_ASSERT(type_->isIntegral());
    return readIntRaw(type_->kind(), bytes_.data());
}

double
Value::asDouble() const
{
    ZIRIA_ASSERT(type_->isDouble());
    double v;
    std::memcpy(&v, bytes_.data(), 8);
    return v;
}

Complex16
Value::asC16() const
{
    ZIRIA_ASSERT(type_->kind() == TypeKind::Complex16);
    Complex16 c;
    std::memcpy(&c, bytes_.data(), 4);
    return c;
}

Value
Value::field(const std::string& name) const
{
    long off = type_->fieldOffset(name);
    ZIRIA_ASSERT(off >= 0, "no such field");
    TypePtr ft = type_->fieldType(name);
    std::vector<uint8_t> b(bytes_.begin() + off,
                           bytes_.begin() + off +
                               static_cast<long>(ft->byteWidth()));
    return Value(std::move(ft), std::move(b));
}

Value
Value::at(int i) const
{
    ZIRIA_ASSERT(type_->isArray());
    ZIRIA_ASSERT(i >= 0 && i < type_->len(), "array index out of range");
    const TypePtr& et = type_->elem();
    size_t w = et->byteWidth();
    std::vector<uint8_t> b(bytes_.begin() + static_cast<long>(i * w),
                           bytes_.begin() + static_cast<long>((i + 1) * w));
    return Value(et, std::move(b));
}

std::string
Value::show() const
{
    std::ostringstream os;
    switch (type_->kind()) {
      case TypeKind::Unit:
        os << "()";
        break;
      case TypeKind::Bool:
        os << (bytes_[0] ? "true" : "false");
        break;
      case TypeKind::Bit:
        os << "'" << int(bytes_[0]);
        break;
      case TypeKind::Int8:
      case TypeKind::Int16:
      case TypeKind::Int32:
      case TypeKind::Int64:
        os << asInt();
        break;
      case TypeKind::Double:
        os << asDouble();
        break;
      case TypeKind::Complex16: {
        Complex16 c = asC16();
        os << "(" << c.re << (c.im >= 0 ? "+" : "") << c.im << "i)";
        break;
      }
      case TypeKind::Complex32: {
        Complex32 c;
        std::memcpy(&c, bytes_.data(), 8);
        os << "(" << c.re << (c.im >= 0 ? "+" : "") << c.im << "i)";
        break;
      }
      case TypeKind::Array: {
        os << "{";
        for (int i = 0; i < type_->len(); ++i) {
            if (i)
                os << ", ";
            os << at(i).show();
        }
        os << "}";
        break;
      }
      case TypeKind::Struct: {
        os << type_->structName() << "{";
        bool first = true;
        for (const auto& [fname, ftype] : type_->fields()) {
            (void)ftype;
            if (!first)
                os << ", ";
            first = false;
            os << fname << "=" << field(fname).show();
        }
        os << "}";
        break;
      }
    }
    return os.str();
}

} // namespace ziria
