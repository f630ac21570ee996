#pragma once

/// \file minijson.h
/// \brief A small JSON reader for the benchmark's side of the wire. The
/// load generator parses every response with this instead of the program's
/// own common/json, so a change to the program's parser can neither speed
/// up the generator nor hide a malformed response from the checks.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct JValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JValue> items;
  std::vector<std::pair<std::string, JValue>> fields;

  bool is_null() const { return type == Type::kNull; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Member lookup; a missing key (or a non-object) yields a null value.
  const JValue& operator[](std::string_view key) const;
  bool Has(std::string_view key) const;
  double Num(std::string_view key, double fallback) const;
  std::string Str(std::string_view key) const;
  bool Bool(std::string_view key) const;
};

/// Parses one JSON document; false (with \p error set) on malformed input.
bool ParseJson(std::string_view text, JValue* out, std::string* error);

/// Appends \p v in the shortest form that reads back to the same double.
void AppendDouble(std::string* out, double v);

/// Appends \p s as a JSON string literal.
void AppendQuoted(std::string* out, std::string_view s);

}  // namespace perfbench
