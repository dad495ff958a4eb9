#include "serving/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"

namespace serenade {

// --- JsonValue ---------------------------------------------------------------

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue JsonValue::Null() { return JsonValue(); }
JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}
JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = value;
  return v;
}
JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}
JsonValue JsonValue::Array(std::vector<JsonValue> values) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(values);
  return v;
}
JsonValue JsonValue::Object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(members);
  return v;
}

// --- parser ------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    SERENADE_RETURN_IF_ERROR(ParseValue(&value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::Corruption("trailing characters after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status ParseValue(JsonValue* out) {
    if (depth_ > kMaxDepth) {
      return Status::Corruption("nesting too deep");
    }
    if (pos_ >= text_.size()) return Status::Corruption("unexpected end");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string s;
        SERENADE_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::Ok();
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true), out);
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false), out);
      case 'n':
        return ParseLiteral("null", JsonValue::Null(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(const char* literal, JsonValue value, JsonValue* out) {
    const size_t length = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, length, literal) != 0) {
      return Status::Corruption("bad literal");
    }
    pos_ += length;
    *out = std::move(value);
    return Status::Ok();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (start == pos_) return Status::Corruption("expected number");
    double value = 0.0;
    const auto result =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (result.ec != std::errc()) return Status::Corruption("bad number");
    *out = JsonValue::Number(value);
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::Corruption("bad \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return Status::Corruption("bad hex digit");
          }
          // Encode as UTF-8 (basic multilingual plane only).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return Status::Corruption("bad escape");
      }
    }
    return Status::Corruption("unterminated string");
  }

  Status ParseArray(JsonValue* out) {
    ++depth_;
    struct DepthGuard {
      int& depth;
      ~DepthGuard() { --depth; }
    } guard{depth_};
    ++pos_;  // '['
    std::vector<JsonValue> values;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = JsonValue::Array(std::move(values));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      JsonValue value;
      SERENADE_RETURN_IF_ERROR(ParseValue(&value));
      values.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Status::Corruption("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = JsonValue::Array(std::move(values));
        return Status::Ok();
      }
      return Status::Corruption("expected , or ] in array");
    }
  }

  Status ParseObject(JsonValue* out) {
    ++depth_;
    struct DepthGuard {
      int& depth;
      ~DepthGuard() { --depth; }
    } guard{depth_};
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = JsonValue::Object(std::move(members));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Status::Corruption("expected object key");
      }
      std::string key;
      SERENADE_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Status::Corruption("expected :");
      }
      ++pos_;
      SkipWhitespace();
      JsonValue value;
      SERENADE_RETURN_IF_ERROR(ParseValue(&value));
      members.emplace(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Status::Corruption("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = JsonValue::Object(std::move(members));
        return Status::Ok();
      }
      return Status::Corruption("expected , or } in object");
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

// --- writer ------------------------------------------------------------------

void JsonWriter::MaybeComma() {
  if (need_comma_) out_.push_back(',');
  need_comma_ = false;
}

void JsonWriter::AppendEscaped(const std::string& value) {
  out_.push_back('"');
  for (char c : value) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  return *this;
}
JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  need_comma_ = true;
  return *this;
}
JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  return *this;
}
JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  need_comma_ = true;
  return *this;
}
JsonWriter& JsonWriter::Key(const std::string& key) {
  MaybeComma();
  AppendEscaped(key);
  out_.push_back(':');
  need_comma_ = false;
  return *this;
}
JsonWriter& JsonWriter::Value(const std::string& value) {
  MaybeComma();
  AppendEscaped(value);
  need_comma_ = true;
  return *this;
}
JsonWriter& JsonWriter::Value(const char* value) {
  return Value(std::string(value));
}
JsonWriter& JsonWriter::Value(double value) {
  MaybeComma();
  // to_chars is specified to match printf "%.6g" output (minus locale),
  // and skips the locale machinery — scores dominate response bytes, so
  // this is on the serving hot path.
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 6);
  if (ec == std::errc()) {
    out_.append(buf, end);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out_ += buf;
  }
  need_comma_ = true;
  return *this;
}
JsonWriter& JsonWriter::Value(int64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
  need_comma_ = true;
  return *this;
}
JsonWriter& JsonWriter::Value(uint64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
  need_comma_ = true;
  return *this;
}
JsonWriter& JsonWriter::Value(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  need_comma_ = true;
  return *this;
}
JsonWriter& JsonWriter::Raw(const std::string& json) {
  MaybeComma();
  out_ += json;
  need_comma_ = true;
  return *this;
}
JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  need_comma_ = true;
  return *this;
}

namespace {

void WriteValue(const JsonValue& value, JsonWriter& writer) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      writer.Null();
      break;
    case JsonValue::Type::kBool:
      writer.Value(value.AsBool());
      break;
    case JsonValue::Type::kNumber: {
      // Integral values round-trip through the integer path: %.6g would
      // truncate ids above six significant digits.
      const double number = value.AsNumber();
      if (number == std::floor(number) && std::abs(number) < 9.0e18) {
        writer.Value(static_cast<int64_t>(number));
      } else {
        writer.Value(number);
      }
      break;
    }
    case JsonValue::Type::kString:
      writer.Value(value.AsString());
      break;
    case JsonValue::Type::kArray:
      writer.BeginArray();
      for (const JsonValue& element : value.AsArray()) {
        WriteValue(element, writer);
      }
      writer.EndArray();
      break;
    case JsonValue::Type::kObject:
      writer.BeginObject();
      for (const auto& [key, member] : value.AsObject()) {
        writer.Key(key);
        WriteValue(member, writer);
      }
      writer.EndObject();
      break;
  }
}

}  // namespace

std::string SerializeJson(const JsonValue& value) {
  JsonWriter writer;
  WriteValue(value, writer);
  return writer.str();
}

std::string StatsJson(
    const MetricsRegistry& registry,
    const std::vector<std::pair<std::string, std::string>>& identity) {
  const std::vector<MetricReading> readings = registry.Readings();
  JsonWriter writer;
  writer.BeginObject();
  for (size_t i = 0; i < readings.size(); ++i) {
    const MetricReading& reading = readings[i];
    if (reading.label_value.empty()) {
      writer.Key(reading.key).Value(reading.value);
      continue;
    }
    // A labeled family's samples are adjacent: open its object on the
    // first, close it after the last.
    if (i == 0 || readings[i - 1].key != reading.key) {
      writer.Key(reading.key).BeginObject();
    }
    writer.Key(reading.label_value).Value(reading.value);
    if (i + 1 == readings.size() || readings[i + 1].key != reading.key) {
      writer.EndObject();
    }
  }
  for (const auto& [key, value] : identity) writer.Key(key).Value(value);
  writer.EndObject();
  return writer.str();
}

}  // namespace serenade
