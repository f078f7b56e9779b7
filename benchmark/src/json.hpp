// Minimal JSON value, writer and parser for bench_e2e's result files and
// BENCHMARK.json.  Objects keep insertion order so written files diff well.
#ifndef BENCH_E2E_JSON_HPP
#define BENCH_E2E_JSON_HPP

#include <string>
#include <utility>
#include <vector>

namespace bench::json {

class Value {
 public:
  Value() = default;
  Value(double v) : type_(Type::kNumber), number_(v) {}  // NOLINT
  Value(int v) : Value(static_cast<double>(v)) {}         // NOLINT
  Value(unsigned v) : Value(static_cast<double>(v)) {}    // NOLINT
  Value(long v) : Value(static_cast<double>(v)) {}        // NOLINT
  Value(long long v) : Value(static_cast<double>(v)) {}   // NOLINT
  Value(unsigned long v) : Value(static_cast<double>(v)) {}  // NOLINT
  Value(unsigned long long v) : Value(static_cast<double>(v)) {}  // NOLINT
  Value(bool v) : type_(Type::kBool), bool_(v) {}           // NOLINT
  Value(std::string v) : type_(Type::kString), string_(std::move(v)) {}  // NOLINT
  Value(const char* v) : Value(std::string(v)) {}           // NOLINT

  static Value array() { return Value(Type::kArray); }
  static Value object() { return Value(Type::kObject); }

  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  [[nodiscard]] double number() const;
  [[nodiscard]] bool boolean() const;
  [[nodiscard]] const std::string& string() const;
  [[nodiscard]] const std::vector<Value>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& members()
      const;

  /// Object member, inserted as null when absent (turns null into object).
  Value& operator[](const std::string& key);
  /// Object member or nullptr.
  [[nodiscard]] const Value* find(const std::string& key) const;
  [[nodiscard]] Value* find(const std::string& key);
  /// Member that must exist; throws std::runtime_error naming the key.
  [[nodiscard]] const Value& at(const std::string& key) const;
  /// Appends to an array (turns null into array).
  void push(Value v);

  /// Serializes; numbers use the shortest exact round-trip form.
  [[nodiscard]] std::string dump(int indent = 2) const;

 private:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  explicit Value(Type t) : type_(t) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parses a JSON document; throws std::runtime_error with the offset.
[[nodiscard]] Value parse(const std::string& text);
[[nodiscard]] Value load(const std::string& path);
void save(const std::string& path, const Value& v);

}  // namespace bench::json

#endif  // BENCH_E2E_JSON_HPP
