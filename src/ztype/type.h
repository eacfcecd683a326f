/**
 * @file
 * Ziria value types and computation types.
 *
 * Value types mirror the paper's Section 2.1: bit, integers and complex
 * numbers of various widths, double, bool, unit, fixed-length arrays and
 * structs.  Computation types are `Zr T a b` (stream transformer) and
 * `Zr (C c) a b` (stream computer returning a control value of type c).
 *
 * Runtime layout: every value is a flat byte record with no padding.
 * Scalars use little-endian native encodings; `bit` and `bool` occupy one
 * byte (0/1); `complex16` is two int16 (re, im); arrays are contiguous
 * elements; structs are concatenated fields in declaration order.
 */
#ifndef ZIRIA_ZTYPE_TYPE_H
#define ZIRIA_ZTYPE_TYPE_H

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ziria {

class Type;
using TypePtr = std::shared_ptr<const Type>;

/** Discriminator for value types. */
enum class TypeKind {
    Unit,
    Bool,
    Bit,
    Int8,
    Int16,
    Int32,
    Int64,
    Double,
    Complex16,
    Complex32,
    Array,
    Struct,
};

/** A Ziria value type (immutable, shared). */
class Type : public std::enable_shared_from_this<Type>
{
  public:
    // Scalar constructors (interned singletons).
    static TypePtr unit();
    static TypePtr boolean();
    static TypePtr bit();
    static TypePtr int8();
    static TypePtr int16();
    static TypePtr int32();
    static TypePtr int64();
    static TypePtr real();
    static TypePtr complex16();
    static TypePtr complex32();

    /** Fixed-length array type. */
    static TypePtr array(TypePtr elem, int len);

    /** Struct type with named fields. */
    static TypePtr strct(std::string name,
                         std::vector<std::pair<std::string, TypePtr>> fields);

    TypeKind kind() const { return kind_; }

    bool isScalar() const { return kind_ != TypeKind::Array &&
                                   kind_ != TypeKind::Struct; }
    bool isArray() const { return kind_ == TypeKind::Array; }
    bool isStruct() const { return kind_ == TypeKind::Struct; }
    bool isUnit() const { return kind_ == TypeKind::Unit; }
    bool isBit() const { return kind_ == TypeKind::Bit; }
    bool isBool() const { return kind_ == TypeKind::Bool; }
    bool isDouble() const { return kind_ == TypeKind::Double; }

    bool
    isIntegral() const
    {
        switch (kind_) {
          case TypeKind::Bit:
          case TypeKind::Bool:
          case TypeKind::Int8:
          case TypeKind::Int16:
          case TypeKind::Int32:
          case TypeKind::Int64:
            return true;
          default:
            return false;
        }
    }

    bool
    isComplex() const
    {
        return kind_ == TypeKind::Complex16 || kind_ == TypeKind::Complex32;
    }

    bool isNumeric() const { return isIntegral() || isDouble() ||
                                    isComplex(); }

    /** Array element type (panics if not an array). */
    const TypePtr& elem() const;

    /** Array length (panics if not an array). */
    int len() const;

    /** Struct fields (panics if not a struct). */
    const std::vector<std::pair<std::string, TypePtr>>& fields() const;

    /** Struct name. */
    const std::string& structName() const;

    /** Byte offset of a struct field; -1 if not found. */
    long fieldOffset(const std::string& field) const;

    /** Type of a struct field (panics if not found). */
    TypePtr fieldType(const std::string& field) const;

    /** Flat byte width of the runtime representation. */
    size_t byteWidth() const { return byteWidth_; }

    /**
     * Number of semantic bits in the value, for LUT key sizing: bit/bool
     * count as 1, int8 as 8, complex16 as 32, arrays/structs sum their
     * elements.  Doubles are not LUT-able and report -1.
     */
    long bitWidth() const;

    /** Structural equality. */
    bool equals(const Type& other) const;

    /** Human-readable form, e.g. `arr[8] bit`. */
    std::string show() const;

  protected:
    explicit Type(TypeKind kind);

  private:
    TypeKind kind_;
    TypePtr elem_;
    int len_ = 0;
    std::string structName_;
    std::vector<std::pair<std::string, TypePtr>> fields_;
    size_t byteWidth_ = 0;
};

inline bool
operator==(const TypePtr& a, const Type& b)
{
    return a && a->equals(b);
}

/** Structural equality on shared types (null == null). */
bool typeEq(const TypePtr& a, const TypePtr& b);

/**
 * Width in bits of integral kind @p k, as the operator functions of
 * zexpr/zr_sem.h take it (1 for bit and bool).
 */
int intBits(TypeKind k);

/** Width in bits of one component of complex kind @p k (16 or 32). */
int complexBits(TypeKind k);

/**
 * The stream signature of a computation: whether it is a computer and if so
 * its control-value type, plus its input and output element types.  A null
 * in/out type means "polymorphic / not yet constrained" (e.g. `return e`
 * places no constraint on the streams).
 */
struct CompType
{
    bool isComputer = false;
    TypePtr ctrl;  ///< control value type (computers only)
    TypePtr in;    ///< input element type; null = unconstrained
    TypePtr out;   ///< output element type; null = unconstrained

    std::string show() const;
};

} // namespace ziria

#endif // ZIRIA_ZTYPE_TYPE_H
