// Minimal JSON support: a streaming writer for bench/report output and a
// small recursive-descent reader for declarative inputs (fault plans).
//
// The Writer builds a pretty-printed (2-space indent) UTF-8 document in
// memory with deterministic number formatting, so emitted files are stable
// across runs and diffable in golden tests. The reader (json::Parse into a
// json::Value DOM) exists for the handful of places that consume JSON — it
// favors clear errors over speed and supports exactly the JSON subset the
// writer emits (objects, arrays, strings with \-escapes, numbers, bools,
// null).

#ifndef DRACONIS_COMMON_JSON_H_
#define DRACONIS_COMMON_JSON_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace draconis::json {

class Writer {
 public:
  // Containers. The first call must open the root object or array.
  Writer& BeginObject();
  Writer& EndObject();
  Writer& BeginArray();
  Writer& EndArray();

  // Object member key; must be followed by exactly one value or container.
  Writer& Key(const std::string& name);

  // Values.
  Writer& String(const std::string& value);
  Writer& Int(int64_t value);
  Writer& UInt(uint64_t value);
  Writer& Double(double value);
  Writer& Bool(bool value);
  Writer& Null();

  // The finished document; valid once every container is closed.
  const std::string& str() const { return out_; }
  bool done() const { return !out_.empty() && stack_.empty(); }

  // Shortest decimal representation that round-trips to `value`.
  static std::string FormatDouble(double value);

 private:
  enum class Frame : uint8_t { kObject, kArray };

  void BeforeValue();  // comma / newline / indent bookkeeping
  void Indent();
  void AppendEscaped(const std::string& s);

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<uint64_t> counts_;  // values emitted per open container
  bool key_pending_ = false;
};

// Parsed JSON value. A small tagged DOM: good enough for config-sized
// documents (fault plans), not a serialization layer — reports still go
// through the Writer.
class Value {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; the caller checks the type first (they CHECK-fail on a
  // mismatch rather than coerce).
  bool AsBool() const;
  double AsDouble() const;
  const std::string& AsString() const;
  const std::vector<Value>& AsArray() const;

  // The number as a T, or nullopt when the value is not a number, has a
  // fraction, or lies outside T's range. Input from outside the program
  // goes through here: the range is checked before the cast, so 1e30 or -1
  // for an unsigned T is refused rather than undefined or wrapped.
  template <typename T = int64_t>
  std::optional<T> AsInt() const {
    static_assert(std::is_integral_v<T>);
    // T's min and max + 1 are powers of two, so both are exact doubles.
    constexpr double kMin = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double kEnd = 2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    if (!is_number() || !(number_ >= kMin && number_ < kEnd) ||
        std::trunc(number_) != number_) {
      return std::nullopt;
    }
    return static_cast<T>(number_);
  }

  // Object member lookup; nullptr when absent (or when not an object).
  const Value* Find(const std::string& key) const;
  // Member names in document order (for unknown-key diagnostics).
  std::vector<std::string> Keys() const;

  // Factories used by the parser (and tests).
  static Value Null();
  static Value MakeBool(bool b);
  static Value Number(double d);
  static Value Str(std::string s);
  static Value Array(std::vector<Value> items);
  static Value Object(std::vector<std::pair<std::string, Value>> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> members_;  // document order
};

// Parses a complete JSON document. Returns false (and a "line N: ..." error
// when `error` is non-null) on malformed input or trailing garbage.
bool Parse(const std::string& text, Value* out, std::string* error);

}  // namespace draconis::json

#endif  // DRACONIS_COMMON_JSON_H_
