#include "json.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bench::json {

namespace {

[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("json: value is not ") + want);
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value document() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return Value(string());
    if (consume("true")) return Value(true);
    if (consume("false")) return Value(false);
    if (consume("null")) return Value();
    return number();
  }

  Value object() {
    Value v = Value::object();
    ++pos_;
    skip_ws();
    if (consume("}")) return v;
    for (;;) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected key");
      std::string key = string();
      skip_ws();
      if (!consume(":")) fail("expected ':'");
      v[key] = value();
      skip_ws();
      if (consume("}")) return v;
      if (!consume(",")) fail("expected ',' or '}'");
    }
  }

  Value array() {
    Value v = Value::array();
    ++pos_;
    skip_ws();
    if (consume("]")) return v;
    for (;;) {
      v.push(value());
      skip_ws();
      if (consume("]")) return v;
      if (!consume(",")) fail("expected ',' or ']'");
    }
  }

  std::string string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            const unsigned code = std::stoul(s_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            if (code > 0x7F) fail("non-ASCII \\u escape unsupported");
            c = static_cast<char>(code);
            break;
          }
          default: c = e;
        }
      }
      out += c;
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  Value number() {
    double v = 0.0;
    const char* begin = s_.data() + pos_;
    const auto r = std::from_chars(begin, s_.data() + s_.size(), v);
    if (r.ec != std::errc() || r.ptr == begin) fail("bad value");
    pos_ += static_cast<std::size_t>(r.ptr - begin);
    return Value(v);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

double Value::number() const {
  if (type_ != Type::kNumber) type_error("a number");
  return number_;
}

bool Value::boolean() const {
  if (type_ != Type::kBool) type_error("a boolean");
  return bool_;
}

const std::string& Value::string() const {
  if (type_ != Type::kString) type_error("a string");
  return string_;
}

const std::vector<Value>& Value::items() const {
  if (type_ != Type::kArray) type_error("an array");
  return items_;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (type_ != Type::kObject) type_error("an object");
  return members_;
}

Value& Value::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("an object");
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(key, Value());
  return members_.back().second;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value* Value::find(const std::string& key) {
  return const_cast<Value*>(static_cast<const Value&>(*this).find(key));
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw std::runtime_error("json: missing key '" + key + "'");
  return *v;
}

void Value::push(Value v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("an array");
  items_.push_back(std::move(v));
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  out += '\n';
  return out;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: append_number(out, number_); return;
    case Type::kString: append_string(out, string_); return;
    case Type::kArray: {
      // Arrays of scalars stay on one line: sample lists and span rows.
      bool flat = true;
      for (const Value& v : items_) {
        if (v.is_array() || v.is_object()) flat = false;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += flat ? ", " : ",";
        if (!flat) newline(depth + 1);
        items_[i].dump_to(out, flat ? 0 : indent, depth + 1);
      }
      if (!flat && !items_.empty()) newline(depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        append_string(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out += '}';
      return;
    }
  }
}

Value parse(const std::string& text) { return Parser(text).document(); }

Value load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

void save(const std::string& path, const Value& v) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << v.dump();
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace bench::json
