#include "obs/metrics.h"

#include <string_view>

namespace serenade {

namespace {

const char* TypeName(MetricType type) {
  return type == MetricType::kCounter ? "counter" : "gauge";
}

// Label values land inside double quotes; escape per the exposition spec.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void AppendHeader(std::string* body, const std::string& name,
                  const std::string& help, const char* type) {
  *body += "# HELP " + name + " " + help + "\n";
  *body += "# TYPE " + name + " " + std::string(type) + "\n";
}

void AppendSample(std::string* body, const std::string& name,
                  const std::string& labels, uint64_t value) {
  *body += name;
  *body += labels;
  *body += ' ';
  *body += std::to_string(value);
  *body += '\n';
}

// Renders `{key="value"}` (or "" when the family is unlabeled), with an
// optional extra quantile label appended for summary samples.
std::string RenderLabels(const std::string& key, const std::string& value) {
  if (key.empty()) return "";
  return "{" + key + "=\"" + EscapeLabelValue(value) + "\"}";
}

std::string RenderLabelsWithQuantile(const std::string& key,
                                     const std::string& value,
                                     const char* quantile) {
  std::string out = "{";
  if (!key.empty()) {
    out += key + "=\"" + EscapeLabelValue(value) + "\",";
  }
  out += "quantile=\"";
  out += quantile;
  out += "\"}";
  return out;
}

constexpr struct {
  double q;
  const char* text;
} kSummaryQuantiles[] = {{0.5, "0.5"},
                         {0.75, "0.75"},
                         {0.9, "0.9"},
                         {0.99, "0.99"},
                         {0.995, "0.995"}};

}  // namespace

MetricsRegistry::Family& MetricsRegistry::FamilyFor(
    const std::string& name, const std::string& help,
    const std::string& label_key, Kind kind) {
  for (auto& family : families_) {
    if (family->name == name) return *family;
  }
  auto family = std::make_unique<Family>();
  family->name = name;
  family->help = help;
  family->label_key = label_key;
  family->kind = kind;
  families_.push_back(std::move(family));
  return *families_.back();
}

MetricsRegistry::Member& MetricsRegistry::MemberFor(
    Family& family, const std::string& label_value) {
  for (auto& member : family.members) {
    if (member->label_value == label_value) return *member;
  }
  auto member = std::make_unique<Member>();
  member->label_value = label_value;
  switch (family.kind) {
    case Kind::kCounter:
      member->counter = std::make_unique<MetricCounter>();
      break;
    case Kind::kHistogram:
      member->histogram = std::make_unique<MetricHistogram>();
      break;
    case Kind::kCallback:
      break;
  }
  family.members.push_back(std::move(member));
  return *family.members.back();
}

MetricCounter& MetricsRegistry::AddCounter(const std::string& name,
                                           const std::string& help) {
  return AddCounter(name, help, "", "");
}

MetricCounter& MetricsRegistry::AddCounter(const std::string& name,
                                           const std::string& help,
                                           const std::string& label_key,
                                           const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = FamilyFor(name, help, label_key, Kind::kCounter);
  return *MemberFor(family, label_value).counter;
}

MetricHistogram& MetricsRegistry::AddHistogram(const std::string& name,
                                               const std::string& help) {
  return AddHistogram(name, help, "", "");
}

MetricHistogram& MetricsRegistry::AddHistogram(const std::string& name,
                                               const std::string& help,
                                               const std::string& label_key,
                                               const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = FamilyFor(name, help, label_key, Kind::kHistogram);
  return *MemberFor(family, label_value).histogram;
}

void MetricsRegistry::AddCallback(const std::string& name,
                                  const std::string& help, MetricType type,
                                  const std::string& label_key,
                                  MetricCallback callback) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = FamilyFor(name, help, label_key, Kind::kCallback);
  family.callback_type = type;
  family.callback = std::move(callback);
}

void MetricsRegistry::AddCallback(const std::string& name,
                                  const std::string& help, MetricType type,
                                  std::function<uint64_t()> value) {
  AddCallback(name, help, type, "",
              [value = std::move(value)]() -> std::vector<MetricSample> {
                return {{"", value()}};
              });
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string body;
  body.reserve(4096);
  for (const auto& family : families_) {
    switch (family->kind) {
      case Kind::kCounter:
        AppendHeader(&body, family->name, family->help, "counter");
        for (const auto& member : family->members) {
          AppendSample(&body, family->name,
                       RenderLabels(family->label_key, member->label_value),
                       member->counter->value());
        }
        break;
      case Kind::kHistogram:
        AppendHeader(&body, family->name, family->help, "summary");
        for (const auto& member : family->members) {
          const Histogram merged = member->histogram->Merged();
          for (const auto& quantile : kSummaryQuantiles) {
            AppendSample(
                &body, family->name,
                RenderLabelsWithQuantile(family->label_key,
                                         member->label_value, quantile.text),
                merged.Percentile(quantile.q));
          }
          const std::string labels =
              RenderLabels(family->label_key, member->label_value);
          AppendSample(&body, family->name + "_count", labels,
                       merged.count());
          AppendSample(&body, family->name + "_sum", labels,
                       static_cast<uint64_t>(merged.Mean() *
                                             static_cast<double>(
                                                 merged.count())));
        }
        break;
      case Kind::kCallback: {
        AppendHeader(&body, family->name, family->help,
                     TypeName(family->callback_type));
        if (!family->callback) break;
        for (const MetricSample& sample : family->callback()) {
          AppendSample(&body, family->name,
                       RenderLabels(family->label_key, sample.label_value),
                       sample.value);
        }
        break;
      }
    }
  }
  return body;
}

std::vector<MetricReading> MetricsRegistry::Readings() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricReading> out;
  for (const auto& family : families_) {
    const std::string key = StatsKey(family->name);
    if (family->kind == Kind::kCounter) {
      for (const auto& member : family->members) {
        out.push_back({key, member->label_value, member->counter->value()});
      }
    } else if (family->kind == Kind::kCallback && family->callback) {
      for (MetricSample& sample : family->callback()) {
        out.push_back({key, std::move(sample.label_value), sample.value});
      }
    }
  }
  return out;
}

std::string MetricsRegistry::StatsKey(const std::string& family_name) {
  std::string_view key = family_name;
  for (std::string_view prefix : {"serenade_", "gateway_"}) {
    if (key.substr(0, prefix.size()) == prefix) {
      key.remove_prefix(prefix.size());
      break;
    }
  }
  constexpr std::string_view kTotal = "_total";
  if (key.size() > kTotal.size() &&
      key.substr(key.size() - kTotal.size()) == kTotal) {
    key.remove_suffix(kTotal.size());
  }
  return std::string(key);
}

}  // namespace serenade
