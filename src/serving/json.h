// Minimal JSON support for the REST serving layer: a writer with correct
// string escaping, and a small recursive-descent parser (objects, arrays,
// strings, numbers, booleans, null) used by the load generator and tests
// to decode responses. Not a general-purpose library — no unicode escapes
// beyond \uXXXX pass-through, numbers parsed as doubles.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace serenade {

class MetricsRegistry;

/// A parsed JSON value (immutable after parse).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  int64_t AsInt() const { return static_cast<int64_t>(number_); }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::map<std::string, JsonValue>& AsObject() const { return object_; }

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  static JsonValue Null();
  static JsonValue Bool(bool value);
  static JsonValue Number(double value);
  static JsonValue String(std::string value);
  static JsonValue Array(std::vector<JsonValue> values);
  static JsonValue Object(std::map<std::string, JsonValue> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses a complete JSON document. Trailing garbage is an error.
StatusOr<JsonValue> ParseJson(const std::string& text);

/// Serialises a parsed value back to compact JSON (numbers as doubles,
/// object keys sorted) — used by the gateway to splice backend sub-batch
/// results into one merged response.
std::string SerializeJson(const JsonValue& value);

/// Incremental writer producing compact JSON.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& key);
  JsonWriter& Value(const std::string& value);
  JsonWriter& Value(const char* value);
  JsonWriter& Value(double value);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(uint64_t value);
  JsonWriter& Value(bool value);
  JsonWriter& Null();
  /// Splices an already-serialised JSON value verbatim (caller guarantees
  /// it is well-formed) — used to merge proxied sub-results into a batch
  /// response without a reparse.
  JsonWriter& Raw(const std::string& json);

  const std::string& str() const { return out_; }

 private:
  void MaybeComma();
  void AppendEscaped(const std::string& value);

  std::string out_;
  bool need_comma_ = false;
};

/// The /v1/stats body of a serving component, rendered from its metrics
/// registry: one field per counter or gauge family under its
/// MetricsRegistry::StatsKey — an unlabeled family as a number, a labeled
/// one as an object keyed by label value ({"pod-0":1,"pod-1":1}) — then
/// the `identity` string fields no uint64 family can hold.
std::string StatsJson(
    const MetricsRegistry& registry,
    const std::vector<std::pair<std::string, std::string>>& identity = {});

}  // namespace serenade
