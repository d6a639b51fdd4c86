#include "workload.h"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"soak", "storm", "evict"};
  return names;
}

std::vector<std::uint64_t> run_seeds(const std::string& name,
                                     std::uint64_t seed) {
  const std::size_t n = name == "soak" ? 4 : 1;
  std::vector<std::uint64_t> seeds = {seed};
  // splitmix64 from `seed`, so neighbouring seeds share no derived seed.
  std::uint64_t x = seed;
  while (seeds.size() < n) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    seeds.push_back(z ^ (z >> 31));
  }
  return seeds;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "soak") return make_soak(seed);
  if (name == "storm") return make_storm(seed);
  if (name == "evict") return make_evict(seed);
  return nullptr;
}

}  // namespace perfbench
