#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::abort();
}

// Shortest decimal text that reads back as exactly `v`.
std::string format_number(double v) {
  if (!std::isfinite(v)) die("non-finite metric value");
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char c0 = name.front();
  if (!((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') ||
        (c0 >= '0' && c0 <= '9')))
    return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Metric make_percentile(std::string name, std::string unit, Clock clock,
                       double value, std::int64_t samples, double q,
                       bool end_to_end) {
  Metric m{std::move(name), std::move(unit), clock};
  m.samples = samples;
  m.withheld = end_to_end &&
               (samples == 0 || (q >= 0.99 && samples < kTailSampleFloor));
  if (!m.withheld && samples > 0) m.value = value;
  return m;
}

Metric percentile_metric(std::string name, std::string unit, Clock clock,
                         const std::vector<double>& samples, double q,
                         bool end_to_end) {
  return make_percentile(std::move(name), std::move(unit), clock,
                         percentile(samples, q),
                         static_cast<std::int64_t>(samples.size()), q,
                         end_to_end);
}

Metric ratio_metric(std::string name, double num, std::int64_t base,
                    Clock clock) {
  Metric m{std::move(name), "ratio", clock};
  m.base = base;
  m.value = base > 0 ? num / static_cast<double>(base) : 0.0;
  return m;
}

void Report::add(Metric m) {
  if (!valid_metric_name(m.name)) die("bad metric name '" + m.name + "'");
  if (!valid_unit(m.unit)) die("bad unit '" + m.unit + "' on " + m.name);
  if (find(m.name) != nullptr) die("duplicate metric " + m.name);
  metrics_.push_back(std::move(m));
}

void Report::add(std::string name, std::string unit, Clock clock,
                 double value) {
  Metric m{std::move(name), std::move(unit), clock};
  m.value = value;
  add(std::move(m));
}

const Metric* Report::find(std::string_view name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

std::string Report::text() const {
  std::string out;
  for (const Metric& m : metrics_) {
    out += "metric " + m.name + " " +
           (m.withheld ? std::string("withheld") : format_number(m.value)) +
           " " + m.unit + (m.clock == Clock::kHost ? " host" : " sim");
    if (m.samples >= 0) out += " n=" + std::to_string(m.samples);
    if (m.base >= 0) out += " base=" + std::to_string(m.base);
    out += "\n";
  }
  return out;
}

std::string Report::json(bool correct, std::int64_t attempted,
                         std::int64_t failed) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (m.withheld) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

Report merge_seeds(const std::vector<const Report*>& per_seed) {
  Report out;
  if (per_seed.empty()) return out;
  for (const Metric& first : per_seed.front()->metrics()) {
    Metric m = first;
    m.value = 0.0;
    for (const Report* r : per_seed) {
      const Metric* x = r->find(first.name);
      if (x == nullptr) die("metric " + first.name + " missing on a seed");
      m.value += x->value;
      if (r == per_seed.front()) continue;
      if (m.samples >= 0) m.samples += x->samples;
      if (m.base >= 0) m.base += x->base;
      m.withheld = m.withheld || x->withheld;
    }
    if (m.unit != "count") m.value /= static_cast<double>(per_seed.size());
    if (m.withheld) m.value = 0.0;
    out.add(std::move(m));
  }
  return out;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
