#include "layers.h"

#include <limits>

namespace perfbench {

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "sim", "cpu", "net", "rpc", "recov", "fs", "ckpt", "ls", "wl", "trace"};
  return names;
}

const std::map<std::string_view, std::string_view>& label_layers() {
  static const std::map<std::string_view, std::string_view> table = {
      {"other", "sim"},
      {"perfbench_mark", "sim"},
      {"cpu_slice", "cpu"},
      {"cpu_job_done", "cpu"},
      {"cpu_load_sample", "cpu"},
      {"proc_pause", "cpu"},
      {"net_deliver", "net"},
      {"rpc_callback", "rpc"},
      {"rpc_timeout", "rpc"},
      {"recov_probe", "recov"},
      {"fs_disk", "fs"},
      {"fs_retry", "fs"},
      {"fs_scrub", "fs"},
      {"fs_writeback", "fs"},
      {"pdev_wakeup", "fs"},
      {"ckpt_auto_scan", "ckpt"},
      {"ls_gossip", "ls"},
      {"ls_offer", "ls"},
      {"ls_update", "ls"},
      // The workload layer: session activity, arrivals, the soak harness's
      // sampler and fault schedule, and the driver's owner-return schedule.
      {"fault_inject", "wl"},
      {"perfbench_owner", "wl"},
      {"soak_sample", "wl"},
      {"wl_activity", "wl"},
      {"wl_arrival", "wl"},
      {"wl_event", "wl"},
      {"wl_rebalance", "wl"},
      {"trace_series_sample", "trace"},
  };
  return table;
}

std::string_view layer_of(std::string_view label) {
  const auto& table = label_layers();
  const auto it = table.find(label);
  return it == table.end() ? std::string_view() : it->second;
}

LayerTimes attribute(const sprite::sim::EngineProfiler& prof) {
  LayerTimes out;
  for (const std::string& layer : layer_names()) out.handler_s[layer] = 0.0;
  for (const auto& s : prof.top(std::numeric_limits<std::size_t>::max())) {
    const std::string_view layer = layer_of(s.label);
    if (layer.empty()) {
      out.unmapped.emplace_back(s.label);
      continue;
    }
    const double sec = s.total_ns / 1e9;
    out.handler_s[std::string(layer)] += sec;
    out.total_handler_s += sec;
  }
  return out;
}

}  // namespace perfbench
