// Event label -> layer map for the traced run.
//
// The engine profiler times every handler under its event label
// ("cpu_slice", "net_deliver", ...). The benchmark groups those labels into
// the simulator's modules with one fixed table, so per-layer handler time
// (`<layer>.handler_s`) is comparable across commits. A label the table does
// not know fails the traced run: a new event type must be placed in a layer
// before its cost can silently land in the wrong bucket.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/profiler.h"

namespace perfbench {

// Layer buckets, in report order. "sim" holds the engine's unlabeled events
// (EventQueue::kDefaultLabel, which includes the migration and xfer pipeline
// hops) and the driver's own drift marks.
const std::vector<std::string>& layer_names();

// The label -> layer table.
const std::map<std::string_view, std::string_view>& label_layers();

// Layer of `label`, or "" when the table does not know it.
std::string_view layer_of(std::string_view label);

struct LayerTimes {
  std::map<std::string, double> handler_s;  // by layer, every layer present
  double total_handler_s = 0.0;
  std::vector<std::string> unmapped;        // fired labels not in the table
};

// Sums the profiler's per-label handler time into layers.
LayerTimes attribute(const sprite::sim::EngineProfiler& prof);

}  // namespace perfbench
