// perfbench — the measuring half of the repository benchmark (README.md).
// run.py builds this driver and starts it once per phase:
//
//   perfbench --workload stencil|gauss|irregular|service --seed N
//             --seconds S --phase setup|measure|trace --workdir DIR
//             [--f90dcd PATH] [--trace-out FILE]
//
// Output is line-oriented: "SETUP {...}" once set-up is done, then
// "RESULT {...}" (see common.hpp).  Diagnostics go to stderr.  Exit codes:
// 0 ran (failures are counted in RESULT), 2 bad arguments, 3 environment
// guard refused to measure, 4 an exception escaped.
#include <dlfcn.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "phases.hpp"
#include "workloads.hpp"

namespace {

/// Where the JIT scratch directory goes: set from --workdir before the
/// first kernel compile.
std::string g_jit_root;

}  // namespace

// The native JIT (src/native/jit.cpp) makes its scratch directory with
// mkdtemp("/tmp/f90d-native-XXXXXX").  The benchmark reads and writes only
// inside its checkout, so this definition, which the static link of
// libf90d resolves ahead of the C library's, makes that directory under
// --workdir instead.  Every other caller gets the C library's mkdtemp.
extern "C" char* mkdtemp(char* tmpl) {
  using Fn = char* (*)(char*);
  static const Fn real = reinterpret_cast<Fn>(::dlsym(RTLD_NEXT, "mkdtemp"));
  static constexpr const char kJitTemplate[] = "/tmp/f90d-native-";
  if (g_jit_root.empty() || std::strncmp(tmpl, kJitTemplate, sizeof(kJitTemplate) - 1) != 0)
    return real(tmpl);
  static std::string redirected;
  redirected = g_jit_root + "/f90d-native-XXXXXX";
  return real(redirected.data());
}

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--phase") args.phase = val;
    else if (key == "--seed") args.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(val.c_str());
    else if (key == "--f90dcd") args.f90dcd = val;
    else if (key == "--workdir") args.workdir = val;
    else if (key == "--trace-out") args.trace_out = val;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  const bool known = perfbench::is_inprocess_workload(args.workload) ||
                     args.workload == "service";
  if (!known || args.workdir.empty() || args.seconds <= 0 ||
      (args.phase != "setup" && args.phase != "measure" && args.phase != "trace")) {
    std::fprintf(stderr, "usage: perfbench --workload stencil|gauss|irregular|service "
                         "--seed N --seconds S --phase setup|measure|trace "
                         "--workdir DIR [--f90dcd PATH] [--trace-out FILE]\n");
    return 2;
  }
  g_jit_root = args.workdir;
  try {
    return args.workload == "service" ? perfbench::service_main(args)
                                      : perfbench::inprocess_main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
