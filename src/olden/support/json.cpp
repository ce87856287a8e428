#include "olden/support/json.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <system_error>
#include <utility>

namespace olden::jsonio {

void append_kv(std::string& out, const char* key, std::uint64_t v,
               bool comma) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64 "%s", key, v,
                comma ? "," : "");
  out += buf;
}

void append_kv_i64(std::string& out, const char* key, std::int64_t v,
                   bool comma) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRId64 "%s", key, v,
                comma ? "," : "");
  out += buf;
}

void append_escaped(std::string& out, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

bool fail(std::string* err, const std::string& msg) {
  if (err != nullptr && err->empty()) *err = msg;
  return false;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* err) : text_(text), err_(err) {}

  bool parse(Value* out) {
    if (!parse_value(out, 0)) return false;
    skip_ws();
    return pos_ == text_.size() || fail("trailing bytes after document");
  }

 private:
  bool fail(const std::string& what) {
    return jsonio::fail(err_,
                        "JSON byte " + std::to_string(pos_) + ": " + what);
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }

  void skip_ws() {
    while (!at_end() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                         text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  /// Consume `ch` if it is the next non-blank byte.
  bool eat(char ch) {
    skip_ws();
    if (at_end() || text_[pos_] != ch) return false;
    ++pos_;
    return true;
  }

  /// `depth` counts the arrays and objects enclosing this value.
  bool parse_value(Value* out, int depth) {
    skip_ws();
    if (at_end()) return fail("unexpected end of document");
    const char ch = text_[pos_];
    if (ch == '{' || ch == '[') {
      if (depth == kMaxDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      return ch == '{' ? parse_object(out, depth + 1)
                       : parse_array(out, depth + 1);
    }
    if (ch == '"') {
      out->kind = Value::Kind::kString;
      return parse_string(&out->string);
    }
    if (ch == 't' || ch == 'f') return parse_bool(out);
    return parse_number(out);
  }

  bool parse_object(Value* out, int depth) {
    out->kind = Value::Kind::kObject;
    ++pos_;  // '{'
    if (eat('}')) return true;
    do {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      if (!eat(':')) return fail("expected ':'");
      Value v;
      if (!parse_value(&v, depth)) return false;
      out->object.emplace(std::move(key), std::move(v));
    } while (eat(','));
    return eat('}') || fail("expected ',' or '}'");
  }

  bool parse_array(Value* out, int depth) {
    out->kind = Value::Kind::kArray;
    ++pos_;  // '['
    if (eat(']')) return true;
    do {
      Value v;
      if (!parse_value(&v, depth)) return false;
      out->array.push_back(std::move(v));
    } while (eat(','));
    return eat(']') || fail("expected ',' or ']'");
  }

  bool parse_string(std::string* out) {
    if (at_end() || text_[pos_] != '"') return fail("expected a string");
    ++pos_;
    while (!at_end()) {
      char ch = text_[pos_++];
      if (ch == '"') return true;
      if (ch == '\\') {
        if (at_end()) break;
        switch (text_[pos_++]) {
          case '"': ch = '"'; break;
          case '\\': ch = '\\'; break;
          case '/': ch = '/'; break;
          case 'n': ch = '\n'; break;
          case 't': ch = '\t'; break;
          case 'r': ch = '\r'; break;
          case 'u': {
            if (text_.size() - pos_ < 4) return fail("truncated \\u escape");
            const char* digits = text_.data() + pos_;
            unsigned code = 0;
            const auto [end, ec] =
                std::from_chars(digits, digits + 4, code, 16);
            if (ec != std::errc() || end != digits + 4) {
              return fail("bad \\u escape");
            }
            if (code > 0x7f) return fail("\\u escape above 0x7f");
            pos_ += 4;
            ch = static_cast<char>(code);
            break;
          }
          default: return fail("unsupported escape");
        }
      }
      out->push_back(ch);
    }
    return fail("unterminated string");
  }

  bool parse_bool(Value* out) {
    out->kind = Value::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    return fail("expected true or false");
  }

  /// Consume a run of decimal digits; false when there is none.
  bool digits() {
    const std::size_t from = pos_;
    while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ > from;
  }

  bool parse_number(Value* out) {
    const std::size_t start = pos_;
    const bool negative = text_[pos_] == '-';
    if (negative) ++pos_;
    if (!digits()) {
      if (!negative) {
        return fail(std::string("unexpected character '") + text_[pos_] +
                    "'");
      }
      return fail("expected digits");
    }
    bool real = negative;
    if (!at_end() && text_[pos_] == '.') {
      ++pos_;
      real = true;
      if (!digits()) return fail("expected digits after '.'");
    }
    if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      real = true;
      if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digits()) return fail("expected exponent digits");
    }
    // No document field reads a double's value, so a double is only
    // recorded as such: get_uint() still rejects 1.5 by kind.
    if (real) {
      out->kind = Value::Kind::kDouble;
      return true;
    }
    const std::from_chars_result r = std::from_chars(
        text_.data() + start, text_.data() + pos_, out->uint);
    if (r.ec != std::errc()) return fail("number out of range");
    out->kind = Value::Kind::kUint;
    return true;
  }

  std::string_view text_;
  std::string* err_;
  std::size_t pos_ = 0;
};

/// The field `key` of `obj` if it has `kind`; otherwise fails naming the
/// field (`what` describes `kind`) and returns nullptr.
const Value* typed_field(const Value& obj, const std::string& path,
                         const char* key, Value::Kind kind, const char* what,
                         std::string* err) {
  if (obj.kind != Value::Kind::kObject) {
    fail(err, (path.empty() ? "document" : path) + ": not an object");
    return nullptr;
  }
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    fail(err, field_path(path, key) + ": missing field");
    return nullptr;
  }
  if (it->second.kind != kind) {
    fail(err, field_path(path, key) + ": not " + what);
    return nullptr;
  }
  return &it->second;
}

}  // namespace

bool parse(std::string_view text, Value* out, std::string* err) {
  if (err != nullptr) err->clear();
  return Parser(text, err).parse(out);
}

std::string field_path(const std::string& path, const char* key) {
  return path.empty() ? std::string(key) : path + "." + key;
}

bool get_uint(const Value& obj, const std::string& path, const char* key,
              std::uint64_t* out, std::string* err) {
  const Value* v = typed_field(obj, path, key, Value::Kind::kUint,
                               "an unsigned integer", err);
  if (v != nullptr) *out = v->uint;
  return v != nullptr;
}

bool get_string(const Value& obj, const std::string& path, const char* key,
                std::string* out, std::string* err) {
  const Value* v =
      typed_field(obj, path, key, Value::Kind::kString, "a string", err);
  if (v != nullptr) *out = v->string;
  return v != nullptr;
}

bool get_bool(const Value& obj, const std::string& path, const char* key,
              bool* out, std::string* err) {
  const Value* v =
      typed_field(obj, path, key, Value::Kind::kBool, "a bool", err);
  if (v != nullptr) *out = v->boolean;
  return v != nullptr;
}

const Value* get_array(const Value& obj, const std::string& path,
                       const char* key, std::string* err) {
  return typed_field(obj, path, key, Value::Kind::kArray, "an array", err);
}

const Value* get_object(const Value& obj, const std::string& path,
                        const char* key, std::string* err) {
  return typed_field(obj, path, key, Value::Kind::kObject, "an object", err);
}

std::string get_string_opt(const Value& obj, const char* key) {
  const auto it = obj.object.find(key);
  return it != obj.object.end() && it->second.kind == Value::Kind::kString
             ? it->second.string
             : std::string();
}

}  // namespace olden::jsonio
