#include "native/jit.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace f90d::native {

namespace {

/// FNV-1a over the source: names the scratch files only (the cache map is
/// keyed by the full text, so collisions here are harmless).
unsigned long long fnv1a(const std::string& s) {
  unsigned long long h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

const char* compiler_path() {
#ifdef F90D_NATIVE_CXX
  if (const char* env = std::getenv("F90D_NATIVE_CXX"); env && *env)
    return env;
  return F90D_NATIVE_CXX;
#else
  return nullptr;
#endif
}

bool disabled_by_env() {
  const char* env = std::getenv("F90D_NATIVE");
  return env != nullptr && std::string(env) == "0";
}

}  // namespace

NativeCache& NativeCache::instance() {
  static NativeCache cache;
  return cache;
}

bool NativeCache::available() {
  if (compiler_path() == nullptr || disabled_by_env()) return false;
  return ensure_probe();
}

KernelFn NativeCache::get_or_compile(const std::string& source) {
  if (!ensure_probe()) return nullptr;
  {
    std::shared_lock lk(mu_);
    auto it = map_.find(source);
    if (it != map_.end()) {
      const KernelFn fn = it->second;
      lk.unlock();
      std::lock_guard slk(stats_mu_);
      ++stats_.cache_hits;
      return fn;
    }
  }
  // Cold path: register (or join) the in-flight record for this source,
  // then compile with no cache lock held so distinct sources overlap.
  std::shared_ptr<Inflight> fl;
  bool owner = false;
  {
    std::unique_lock lk(mu_);
    auto it = map_.find(source);
    if (it != map_.end()) {
      const KernelFn fn = it->second;
      lk.unlock();
      std::lock_guard slk(stats_mu_);
      ++stats_.cache_hits;
      return fn;
    }
    auto [fit, inserted] = inflight_.try_emplace(source);
    if (inserted) {
      fit->second = std::make_shared<Inflight>();
      owner = true;
    }
    fl = fit->second;
  }
  if (!owner) {
    std::unique_lock wl(fl->m);
    fl->cv.wait(wl, [&] { return fl->done; });
    const KernelFn fn = fl->fn;
    wl.unlock();
    std::lock_guard slk(stats_mu_);
    ++stats_.coalesced;
    return fn;
  }
  const KernelFn fn = compile(source);
  {
    std::unique_lock lk(mu_);
    map_.emplace(source, fn);
    inflight_.erase(source);
  }
  {
    std::lock_guard wl(fl->m);
    fl->fn = fn;
    fl->done = true;
  }
  fl->cv.notify_all();
  return fn;
}

JitStats NativeCache::stats() {
  std::lock_guard lk(stats_mu_);
  return stats_;
}

std::size_t NativeCache::handle_count() {
  std::lock_guard lk(handles_mu_);
  return handles_.size();
}

bool NativeCache::ensure_probe() {
  if (compiler_path() == nullptr || disabled_by_env()) return false;
  std::lock_guard lk(probe_mu_);
  if (probe_state_ == 0) {
    std::string src = "extern \"C\" void ";
    src += kKernelSymbol;
    src +=
        "(const long long*, const long long* const*, void* const*,"
        " const long long*, const long long*, const long long* const*,"
        " const double*, const long long*, const unsigned char*) {}\n";
    probe_state_ = compile(src) != nullptr ? 1 : -1;
  }
  return probe_state_ == 1;
}

NativeCache::~NativeCache() {
  // Every compile unlinks its own files, so the directory is empty by now.
  if (!dir_.empty()) ::rmdir(dir_.c_str());
}

bool NativeCache::ensure_dir() {
  std::call_once(dir_once_, [this] {
    char tmpl[] = "/tmp/f90d-native-XXXXXX";
    const char* d = ::mkdtemp(tmpl);
    if (d != nullptr) dir_ = d;
  });
  return !dir_.empty();
}

KernelFn NativeCache::compile(const std::string& source) {
  const char* cxx = compiler_path();
  if (cxx == nullptr || !ensure_dir()) {
    std::lock_guard slk(stats_mu_);
    ++stats_.failures;
    return nullptr;
  }
  char stem[64];
  std::snprintf(stem, sizeof(stem), "/k%d_%016llx",
                counter_.fetch_add(1, std::memory_order_relaxed),
                fnv1a(source));
  const std::string cpp = dir_ + stem + ".cpp";
  const std::string so = dir_ + stem + ".so";
  const std::string log = dir_ + stem + ".log";
  {
    std::ofstream out(cpp);
    out << source;
    if (!out) {
      ::unlink(cpp.c_str());
      std::lock_guard slk(stats_mu_);
      ++stats_.failures;
      return nullptr;
    }
  }
  // -ffp-contract=off: the host library was built without FMA contraction
  // of a*b+c; allowing it here would change roundings and break the
  // bit-identity contract with the tape interpreter.
  const std::string cmd = std::string("\"") + cxx +
                          "\" -O2 -fPIC -shared -std=c++17 -ffp-contract=off"
                          " -o \"" +
                          so + "\" \"" + cpp + "\" > \"" + log + "\" 2>&1";
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = std::system(cmd.c_str());
  const auto t1 = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  ::unlink(cpp.c_str());
  ::unlink(log.c_str());
  if (rc != 0) {
    ::unlink(so.c_str());
    std::lock_guard slk(stats_mu_);
    stats_.compile_ms += ms;
    ++stats_.failures;
    return nullptr;
  }
  // RTLD_LOCAL: every object exports the same kKernelSymbol; keeping each
  // object's symbols private makes the dlsym below unambiguous.  A loaded
  // object stays mapped after its file is unlinked.
  void* handle = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  ::unlink(so.c_str());
  if (handle == nullptr) {
    std::lock_guard slk(stats_mu_);
    stats_.compile_ms += ms;
    ++stats_.compiles;
    ++stats_.failures;
    return nullptr;
  }
  void* sym = ::dlsym(handle, kKernelSymbol);
  {
    std::lock_guard hlk(handles_mu_);
    // Handles are intentionally never dlclose'd: cached KernelFn pointers
    // live for the process, like the cache itself.
    handles_.push_back(handle);
  }
  std::lock_guard slk(stats_mu_);
  stats_.compile_ms += ms;
  ++stats_.compiles;
  ++stats_.dlopens;
  if (sym == nullptr) {
    ++stats_.failures;
    return nullptr;
  }
  return reinterpret_cast<KernelFn>(sym);
}

}  // namespace f90d::native
