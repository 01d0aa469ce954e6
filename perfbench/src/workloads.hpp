#pragma once
// The in-process workloads (stencil, gauss, irregular): each is a list of
// Fortran 90D/HPF programs from src/apps with seeded initial data and a
// sequential oracle for the array the program computes.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "interp/interp.hpp"

namespace perfbench {

struct Program {
  std::string name;
  std::string source;
  int nprocs = 1;
  f90d::interp::Init init;
  const char* array = "";  ///< REAL array compared against the oracle
  /// Sequential oracle for `array` (row-major global order).  Called once,
  /// after set-up, so its cost is never part of a timed span.
  std::function<std::vector<double>()> oracle;
  /// Which flat elements the program defines (null = all of them).
  std::function<bool(std::size_t)> defined;
};

/// True for the workloads make_programs knows.
[[nodiscard]] bool is_inprocess_workload(const std::string& name);

/// The seeded programs of workload `name`.  The same seed gives the same
/// sources and the same initial data.
[[nodiscard]] std::vector<Program> make_programs(const std::string& name,
                                                 std::uint64_t seed);

/// Largest relative difference between `got` and `want` over the defined
/// elements (infinity on a size mismatch or a non-finite difference).
[[nodiscard]] double max_rel_diff(const std::vector<double>& got,
                                  const std::vector<double>& want,
                                  const std::function<bool(std::size_t)>& defined);

}  // namespace perfbench
