#include <cstdio>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  const std::string err = perfbench::parse_args(argc, argv, &args);
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  return perfbench::run_benchmark(args);
}
