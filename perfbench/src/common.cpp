#include "common.hpp"

#include <cstdlib>
#include <fstream>

namespace perfbench {

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

namespace {

/// One protocol line, flushed so run.py sees it immediately.
void emit_line(const char* tag, const std::string& json) {
  std::printf("%s %s\n", tag, json.c_str());
  std::fflush(stdout);
}

}  // namespace

void emit_setup(const Structure& s, double setup_s) {
  f90d::JsonWriter w;
  w.begin_object();
  if (setup_s >= 0) w.field("setup_s", setup_s);
  w.key("structure");
  s.write(w);
  w.end_object();
  emit_line("SETUP", w.str());
}

void emit_result(const Failures& f, const Structure& s,
                 const std::map<std::string, double>& metrics,
                 const std::map<std::string, double>& info) {
  f90d::JsonWriter w;
  w.begin_object();
  f.write(w);
  w.key("structure");
  s.write(w);
  w.key("metrics").begin_object();
  for (const auto& [k, v] : metrics) w.field(k, v);
  w.end_object();
  w.key("info").begin_object();
  for (const auto& [k, v] : info) w.field(k, v);
  w.end_object();
  w.end_object();
  emit_line("RESULT", w.str());
}

}  // namespace perfbench
