#pragma once
// Entry points of the driver's phases (see main.cpp for the command line).
//   setup    fresh process: build the inputs, compile, run once cold, exit
//   measure  setup, then warm runs for --seconds; end-to-end metrics
//   trace    per-layer metrics from spans around each layer's entry points
#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
  std::string workload;
  std::string phase = "measure";
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string f90dcd;     ///< daemon binary (service workload)
  std::string workdir;    ///< scratch directory inside the checkout
  std::string trace_out;  ///< Chrome trace file for the traced run ("" = none)
};

int inprocess_main(const Args& args);
int service_main(const Args& args);

}  // namespace perfbench
