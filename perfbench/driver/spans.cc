#include "spans.h"

#include <cstdio>

namespace perfbench {

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now() - epoch_)
      .count();
}

int SpanLog::begin(std::string name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), now_ns(), -1, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"traceEvents\": [";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"name\": \"",
                  i == 0 ? "" : ",", static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += buf;
    out += s.name;
    std::snprintf(buf, sizeof(buf), "\", \"args\": {\"id\": %zu, \"parent\": %d}}",
                  i, s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

double Phase::finish() {
  if (seconds_ < 0.0) {
    seconds_ = seconds_since(t0_);
    log_.end(id_);
  }
  return seconds_;
}

void DriftProbe::mark(double sim_s, std::int64_t events) {
  marks_.push_back(
      {sim_s,
       std::chrono::duration_cast<std::chrono::nanoseconds>(
           HostClock::now().time_since_epoch())
           .count(),
       events});
}

double DriftProbe::drift() const {
  if (marks_.size() < 3) return 0.0;
  const Mark& first = marks_.front();
  const Mark& last = marks_.back();
  const double tenth = (last.sim_s - first.sim_s) / 10.0;
  // First tenth: from the first mark to the first mark at or past it.
  std::size_t a = 1;
  while (a + 1 < marks_.size() && marks_[a].sim_s < first.sim_s + tenth) ++a;
  // Last tenth: from the last mark at or before its start to the end.
  std::size_t b = marks_.size() - 2;
  while (b > 0 && marks_[b].sim_s > last.sim_s - tenth) --b;
  const auto rate = [](const Mark& x, const Mark& y) {
    const std::int64_t ev = y.events - x.events;
    return ev > 0 ? static_cast<double>(y.host_ns - x.host_ns) /
                        static_cast<double>(ev)
                  : 0.0;
  };
  const double early = rate(first, marks_[a]);
  const double late = rate(marks_[b], last);
  return early > 0.0 ? late / early : 0.0;
}

}  // namespace perfbench
