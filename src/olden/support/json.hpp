// JSON for every document the simulator emits or reads back: the stats,
// profile, analysis and diff documents. One implementation so no two
// documents can diverge on escaping or number formatting, and no two
// readers on what they admit.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace olden::jsonio {

// --- writer -----------------------------------------------------------------

/// Append `"key":v`, then a comma when `comma`.
void append_kv(std::string& out, const char* key, std::uint64_t v,
               bool comma = true);
/// Signed variant — diff deltas go negative.
void append_kv_i64(std::string& out, const char* key, std::int64_t v,
                   bool comma = true);
/// Append `s` as the body of a JSON string: quote, backslash, \n, \t and
/// \r by name, other control bytes as \u00XX, every other byte verbatim.
void append_escaped(std::string& out, const std::string& s);

// --- reader -----------------------------------------------------------------

/// Deepest nesting of arrays and objects the reader accepts. The exporters
/// nest about 7 deep; the cap turns hostile input into an error instead of
/// a stack overflow.
inline constexpr int kMaxDepth = 64;

/// A parsed JSON value. A number with no sign, fraction or exponent is
/// kUint; every other number is kDouble, whose value is not kept (no
/// document field reads one).
struct Value {
  enum class Kind { kObject, kArray, kString, kUint, kDouble, kBool };
  Kind kind = Kind::kUint;
  std::map<std::string, Value> object;
  std::vector<Value> array;
  std::string string;
  std::uint64_t uint = 0;
  bool boolean = false;
};

/// Set *err (when non-null) to `msg` unless it already holds an error, so
/// the first error wins; returns false.
bool fail(std::string* err, const std::string& msg);

/// Parse one document: objects, arrays, strings, numbers, true and false
/// (no null). String escapes are \" \\ \/ \n \t \r and \u up to 0x7f: the
/// exporters \u-escape only control bytes. Clears *err first; a
/// malformation fails with "JSON byte N: ...".
bool parse(std::string_view text, Value* out, std::string* err);

/// `path.key`, or `key` at the document root (empty path).
[[nodiscard]] std::string field_path(const std::string& path,
                                     const char* key);

// Typed access to the field `key` of `obj`, which sits at `path` in the
// document. A non-object `obj`, a missing field or one of another type
// fails through fail() with the field's path ("runs[2].config.nprocs: not
// an unsigned integer"). The pointer getters return nullptr on failure.

bool get_uint(const Value& obj, const std::string& path, const char* key,
              std::uint64_t* out, std::string* err);
bool get_string(const Value& obj, const std::string& path, const char* key,
                std::string* out, std::string* err);
bool get_bool(const Value& obj, const std::string& path, const char* key,
              bool* out, std::string* err);
const Value* get_array(const Value& obj, const std::string& path,
                       const char* key, std::string* err);
const Value* get_object(const Value& obj, const std::string& path,
                        const char* key, std::string* err);
/// get_uint() into a narrower unsigned type: a value that does not fit
/// fails ("runs[0].sites[3].site: out of range") instead of wrapping.
template <typename T>
  requires(std::is_unsigned_v<T> && !std::is_same_v<T, std::uint64_t>)
bool get_uint(const Value& obj, const std::string& path, const char* key,
              T* out, std::string* err) {
  std::uint64_t v = 0;
  if (!get_uint(obj, path, key, &v, err)) return false;
  if (v > std::numeric_limits<T>::max()) {
    return fail(err, field_path(path, key) + ": out of range");
  }
  *out = static_cast<T>(v);
  return true;
}
/// The string field `key` of `obj`; empty when absent or not a string.
[[nodiscard]] std::string get_string_opt(const Value& obj, const char* key);

/// Map each element of the array field `key` through
/// `map(element, element_path, &row, err)` and append the rows to *out.
template <typename Row, typename Map>
bool get_rows(const Value& obj, const std::string& path, const char* key,
              std::vector<Row>* out, Map map, std::string* err) {
  const Value* arr = get_array(obj, path, key, err);
  if (arr == nullptr) return false;
  const std::string at = field_path(path, key);
  for (std::size_t i = 0; i < arr->array.size(); ++i) {
    Row row;
    if (!map(arr->array[i], at + "[" + std::to_string(i) + "]", &row, err)) {
      return false;
    }
    out->push_back(std::move(row));
  }
  return true;
}

}  // namespace olden::jsonio
