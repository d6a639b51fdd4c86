// Tests of the benchmark driver's own logic: the percentile sample-count
// rule, ratio-with-base output, the metric-name grammar, label-map coverage
// of every event label the simulator schedules, and seed plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "kern/cluster.h"
#include "layers.h"
#include "report.h"
#include "workload.h"

namespace perfbench {
namespace {

std::string slurp(const std::filesystem::path& p) {
  std::ifstream f(p);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(PercentileRule, TailWithheldUnderSampleFloor) {
  std::vector<double> v(kTailSampleFloor - 1, 1.0);
  const Metric p99 = percentile_metric("migrate_p99_ms", "ms", Clock::kSim, v,
                                       0.99, true);
  EXPECT_TRUE(p99.withheld);
  EXPECT_EQ(p99.samples, kTailSampleFloor - 1);
  v.push_back(1.0);
  EXPECT_FALSE(percentile_metric("migrate_p99_ms", "ms", Clock::kSim, v, 0.99,
                                 true)
                   .withheld);
}

TEST(PercentileRule, MedianNeedsOneSample) {
  EXPECT_TRUE(
      percentile_metric("evict_p50_ms", "ms", Clock::kSim, {}, 0.5, true)
          .withheld);
  const Metric one =
      percentile_metric("evict_p50_ms", "ms", Clock::kSim, {7.0}, 0.5, true);
  EXPECT_FALSE(one.withheld);
  EXPECT_EQ(one.value, 7.0);
  EXPECT_EQ(one.samples, 1);
}

TEST(PercentileRule, LayerPercentilesAreNeverWithheld) {
  const Metric m =
      percentile_metric("ls.grant_ms_p99", "ms", Clock::kSim, {}, 0.99, false);
  EXPECT_FALSE(m.withheld);
  EXPECT_EQ(m.value, 0.0);
  EXPECT_EQ(m.samples, 0);
}

TEST(PercentileRule, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 1.0), 3.0);
}

TEST(ReportText, WithheldAndCountsArePrinted) {
  Report r;
  r.add(percentile_metric("downtime_p99_ms", "ms", Clock::kSim, {1, 2, 3},
                          0.99, true));
  EXPECT_EQ(r.text(), "metric downtime_p99_ms withheld ms sim n=3\n");
}

TEST(RatioWithBase, BaseIsPrinted) {
  Report r;
  r.add(ratio_metric("fs.block_hit_ratio", 3, 4));
  r.add(ratio_metric("xfer.resend_ratio", 5, 0));
  EXPECT_EQ(r.text(),
            "metric fs.block_hit_ratio 0.75 ratio sim base=4\n"
            "metric xfer.resend_ratio 0 ratio sim base=0\n");
}

TEST(NameGrammar, AcceptsTheContractAlphabet) {
  EXPECT_TRUE(valid_metric_name("wall_s"));
  EXPECT_TRUE(valid_metric_name("xfer.downtime_p50_ms.iter-pre-copy"));
  EXPECT_TRUE(valid_metric_name("0ok"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_lead"));
  EXPECT_FALSE(valid_metric_name(".lead"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(NameGrammar, DeclaredNamesAreValid) {
  const std::string json =
      slurp(std::filesystem::path(PERFBENCH_REPO_ROOT) / "BENCHMARK.json");
  const std::regex name_re("\"name\": \"([^\"]+)\"");
  int names = 0;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    EXPECT_TRUE(valid_metric_name((*it)[1].str())) << (*it)[1].str();
    ++names;
  }
  EXPECT_GT(names, 3);
}

TEST(JsonLine, HasExactlyTheContractKeysAndNoWithheldMetric) {
  Report r;
  r.add("wall_s", "s", Clock::kHost, 1.5);
  r.add(percentile_metric("evict_p99_ms", "ms", Clock::kSim, {1, 2}, 0.99,
                          true));
  r.add("setup_s", "s", Clock::kHost, 0.25);
  EXPECT_EQ(r.json(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, "
            "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

TEST(MergeSeeds, SumsCountsAndAveragesTheRest) {
  Report a, b;
  a.add("wall_s", "s", Clock::kHost, 1.0);
  b.add("wall_s", "s", Clock::kHost, 3.0);
  a.add("ops", "count", Clock::kSim, 10);
  b.add("ops", "count", Clock::kSim, 5);
  a.add(percentile_metric("migrate_p50_ms", "ms", Clock::kSim, {1, 3}, 0.5,
                          true));
  b.add(percentile_metric("migrate_p50_ms", "ms", Clock::kSim, {4}, 0.5, true));
  a.add(percentile_metric("migrate_p99_ms", "ms", Clock::kSim,
                          std::vector<double>(kTailSampleFloor, 1.0), 0.99,
                          true));
  b.add(percentile_metric("migrate_p99_ms", "ms", Clock::kSim, {1}, 0.99,
                          true));
  EXPECT_EQ(merge_seeds({&a, &b}).text(),
            "metric wall_s 2 s host\n"
            "metric ops 15 count sim\n"
            "metric migrate_p50_ms 3 ms sim n=3\n"
            "metric migrate_p99_ms withheld ms sim n=1001\n");
  // One seed: every metric as it was.
  EXPECT_EQ(merge_seeds({&a}).text(), a.text());
}

// String-literal labels passed to Simulator::at/after/every in `text`: for
// each call, the first label-shaped literal after a comma in the statement.
std::set<std::string> scheduled_labels(const std::string& text) {
  std::set<std::string> out;
  for (const std::string call : {".at(", ".after(", ".every("}) {
    for (std::size_t pos = text.find(call); pos != std::string::npos;
         pos = text.find(call, pos + 1)) {
      const std::size_t end = text.find(';', pos);
      const std::string stmt = text.substr(pos, end - pos);
      const std::size_t q = stmt.find('"');
      if (q == std::string::npos) continue;
      std::size_t k = q;
      while (k > 0 && std::isspace(static_cast<unsigned char>(stmt[k - 1])))
        --k;
      if (k == 0 || stmt[k - 1] != ',') continue;
      const std::size_t close = stmt.find('"', q + 1);
      if (close == std::string::npos) continue;
      // Labels are lowercase [a-z0-9_] (sim/simulator.h).
      const std::string lit = stmt.substr(q + 1, close - q - 1);
      if (!lit.empty() &&
          std::all_of(lit.begin(), lit.end(), [](char c) {
            return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
          }))
        out.insert(lit);
    }
  }
  return out;
}

TEST(LabelMap, CoversEveryLabelTheSimulatorSchedules) {
  // Every string-literal label passed to Simulator::at/after/every under
  // src/ must be in the driver's map, or a traced run would fail on it.
  std::set<std::string> labels;
  const auto src = std::filesystem::path(PERFBENCH_REPO_ROOT) / "src";
  for (const auto& e : std::filesystem::recursive_directory_iterator(src)) {
    const auto ext = e.path().extension();
    if (ext != ".cc" && ext != ".h") continue;
    for (const std::string& l : scheduled_labels(slurp(e.path())))
      labels.insert(l);
  }
  EXPECT_GT(labels.size(), 15u);
  for (const std::string& l : labels)
    EXPECT_FALSE(layer_of(l).empty()) << "unmapped event label " << l;
  EXPECT_EQ(layer_of("other"), "sim");
  EXPECT_TRUE(layer_of("no_such_label").empty());
  // Every layer the map names is a reported bucket.
  for (const auto& [label, layer] : label_layers()) {
    bool known = false;
    for (const std::string& n : layer_names()) known = known || n == layer;
    EXPECT_TRUE(known) << label;
  }
}

TEST(SeedPlumbing, ArgsCarryTheSeed) {
  const char* argv[] = {"perfbench", "--workload", "evict", "--seed", "42",
                        "--seconds", "10", "--trace", "1"};
  Args a;
  ASSERT_EQ(parse_args(9, argv, &a), "");
  EXPECT_EQ(a.workload, "evict");
  EXPECT_EQ(a.seed, 42u);
  EXPECT_EQ(a.seconds, 10);
  EXPECT_TRUE(a.trace);
}

TEST(SeedPlumbing, MalformedArgsAreRejected) {
  const auto bad = [](std::vector<const char*> argv) {
    Args a;
    return !parse_args(static_cast<int>(argv.size()), argv.data(), &a).empty();
  };
  EXPECT_TRUE(bad({"perfbench", "--workload", "evict", "--seed", "-1",
                   "--seconds", "10", "--trace", "0"}));
  EXPECT_TRUE(bad({"perfbench", "--workload", "evict", "--seed", "1x",
                   "--seconds", "10", "--trace", "0"}));
  EXPECT_TRUE(bad({"perfbench", "--workload", "evict", "--seed",
                   "99999999999999999999", "--seconds", "10", "--trace", "0"}));
  EXPECT_TRUE(bad({"perfbench", "--workload", "nope", "--seed", "1",
                   "--seconds", "10", "--trace", "0"}));
  EXPECT_TRUE(bad({"perfbench", "--workload", "evict", "--seed", "1",
                   "--seconds", "0", "--trace", "0"}));
  EXPECT_TRUE(bad({"perfbench", "--workload", "evict", "--seed", "1",
                   "--seconds", "10", "--trace", "2"}));
  EXPECT_TRUE(bad({"perfbench", "--workload", "evict", "--seed", "1"}));
}

// The seed reaches the simulated cluster: same seed, same random stream;
// another seed, another stream.
std::uint64_t first_draw(const std::string& workload, std::uint64_t seed) {
  auto w = make_workload(workload, seed);
  SpanLog spans(false);
  w->setup(spans);
  return w->cluster().sim().rng().next_u64();
}

TEST(SeedPlumbing, RunSeedsStartWithTheSeedAndNeverOverlap) {
  EXPECT_EQ(run_seeds("storm", 42), std::vector<std::uint64_t>{42});
  EXPECT_EQ(run_seeds("evict", 42), std::vector<std::uint64_t>{42});
  const std::vector<std::uint64_t> soak = run_seeds("soak", 42);
  ASSERT_EQ(soak.size(), 4u);
  EXPECT_EQ(soak.front(), 42u);
  EXPECT_EQ(run_seeds("soak", 42), soak);
  // Neighbouring seeds, as a set of runs uses them, share no derived seed.
  std::set<std::uint64_t> all;
  for (std::uint64_t s = 40; s < 50; ++s)
    for (const std::uint64_t d : run_seeds("soak", s)) all.insert(d);
  EXPECT_EQ(all.size(), 40u);
}

TEST(SeedPlumbing, SeedReachesTheCluster) {
  for (const std::string& name : {std::string("soak"), std::string("evict")}) {
    EXPECT_EQ(first_draw(name, 7), first_draw(name, 7)) << name;
    EXPECT_NE(first_draw(name, 7), first_draw(name, 8)) << name;
  }
}

}  // namespace
}  // namespace perfbench
