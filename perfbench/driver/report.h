// Metric records and the rules the benchmark prints them by.
//
// Every number the driver reports is a Metric: a name from the grammar
// [A-Za-z0-9_.-] (first character a letter or digit, at most 64), a unit,
// the clock it was read from, and — for percentiles and ratios — the count
// it rests on. Two rules keep the printed numbers honest:
//
//   * a percentile at or above p99 is withheld unless it has at least
//     kTailSampleFloor samples (a p99 of 40 samples is the maximum in
//     disguise);
//   * a ratio is always printed with its base (the denominator), so 0.5 of
//     2 and 0.5 of 20,000 read differently.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Host metrics are what running the simulator costs and vary run to run;
// simulated metrics are model outputs, deterministic per seed.
enum class Clock { kHost, kSim };

inline constexpr std::int64_t kTailSampleFloor = 1000;

struct Metric {
  std::string name;
  std::string unit;
  Clock clock = Clock::kSim;
  double value = 0.0;
  // Percentiles: the sample count (-1 when the metric is not a percentile).
  std::int64_t samples = -1;
  // Ratios: the denominator (-1 when the metric is not a ratio).
  std::int64_t base = -1;
  // A tail percentile below the sample floor: printed as withheld, never as
  // a number.
  bool withheld = false;
};

bool valid_metric_name(std::string_view name);
bool valid_unit(std::string_view unit);

// Linear interpolation between closest ranks (0 <= q <= 1); 0 when empty.
double percentile(std::vector<double> samples, double q);

// A percentile `value` over `samples` observations, under the sample-count
// rule. End-to-end percentiles are withheld when there are no samples, and
// at q >= 0.99 when there are fewer than kTailSampleFloor. Per-layer
// percentiles are diagnostics: never withheld, 0 when there are no samples,
// and the count is printed either way.
Metric make_percentile(std::string name, std::string unit, Clock clock,
                       double value, std::int64_t samples, double q,
                       bool end_to_end);

Metric percentile_metric(std::string name, std::string unit, Clock clock,
                         const std::vector<double>& samples, double q,
                         bool end_to_end);

// num / base with the base attached (0 when base is 0).
Metric ratio_metric(std::string name, double num, std::int64_t base,
                    Clock clock = Clock::kSim);

class Report {
 public:
  // Aborts the program on a malformed name or unit, or a duplicate name —
  // those are driver bugs, not run outcomes.
  void add(Metric m);
  void add(std::string name, std::string unit, Clock clock, double value);
  const Metric* find(std::string_view name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  // One human-readable line per metric: "metric <name> <value|withheld>
  // <unit> <host|sim> [n=<samples>] [base=<base>]".
  std::string text() const;

  // The closing JSON object: exactly correct/attempted/failed/metrics, with
  // every metric that is not withheld, in report order.
  std::string json(bool correct, std::int64_t attempted,
                   std::int64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// The same metrics measured on each seed of a run, as one report: counts
// summed, every other value averaged over the seeds. Sample counts and
// bases are summed; a percentile is withheld when any seed's is. Every
// report must hold the first one's metrics.
Report merge_seeds(const std::vector<const Report*>& per_seed);

// FNV-1a over `text`, continuing from `h`.
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
