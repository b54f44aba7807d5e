#include "core/backend.hpp"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>

#include "core/auto_backend.hpp"
#include "core/queue.hpp"
#include "mem/pool.hpp"
#include "prof/prof.hpp"
#include "prof/tools.hpp"
#include "sim/device.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "toml/parser.hpp"
#include "toml/writer.hpp"

namespace jacc {
namespace {

std::atomic<int> g_backend{-1}; // -1: not yet initialized

backend resolve_from_preferences() {
  if (const auto env = jaccx::get_env("JACC_BACKEND")) {
    return backend_from_string(*env);
  }
  std::string path = "LocalPreferences.toml";
  if (const auto p = jaccx::get_env("JACC_PREFERENCES_FILE")) {
    path = *p;
  }
  if (std::filesystem::exists(path)) {
    const auto prefs = jaccx::toml::parse_file(path);
    if (const auto name = jaccx::toml::find_string(prefs, "JACC.backend")) {
      return backend_from_string(*name);
    }
  }
  return backend::threads; // paper Sec. III: Base.Threads is the default
}

jaccx::mem::pool_mode resolve_mem_pool() {
  if (const auto env = jaccx::get_env("JACC_MEM_POOL")) {
    if (const auto m = jaccx::mem::parse_mode(*env)) {
      return *m;
    }
    jaccx::throw_config_error("unknown JACC_MEM_POOL '" + *env +
                              "' (known: bucket, none)");
  }
  std::string path = "LocalPreferences.toml";
  if (const auto p = jaccx::get_env("JACC_PREFERENCES_FILE")) {
    path = *p;
  }
  if (std::filesystem::exists(path)) {
    const auto prefs = jaccx::toml::parse_file(path);
    if (const auto name = jaccx::toml::find_string(prefs, "JACC.mem_pool")) {
      if (const auto m = jaccx::mem::parse_mode(*name)) {
        return *m;
      }
      jaccx::throw_config_error("unknown JACC.mem_pool '" + *name +
                                "' (known: bucket, none)");
    }
  }
  return jaccx::mem::pool_mode::bucket;
}

// Cache cap in bytes: JACC_MEM_CAP_MB env > TOML `JACC.mem_cap_mb` > 0
// (uncapped).  0/negative disables the cap.
std::int64_t resolve_mem_cap() {
  if (const auto env = jaccx::get_env("JACC_MEM_CAP_MB")) {
    char* end = nullptr;
    const long long mb = std::strtoll(env->c_str(), &end, 10);
    if (end == env->c_str() || *end != '\0') {
      jaccx::throw_config_error("bad JACC_MEM_CAP_MB '" + *env +
                                "' (want an integer MiB count; 0 = uncapped)");
    }
    return mb > 0 ? static_cast<std::int64_t>(mb) * (1ll << 20) : 0;
  }
  std::string path = "LocalPreferences.toml";
  if (const auto p = jaccx::get_env("JACC_PREFERENCES_FILE")) {
    path = *p;
  }
  if (std::filesystem::exists(path)) {
    const auto prefs = jaccx::toml::parse_file(path);
    if (const auto mb = jaccx::toml::find_int(prefs, "JACC.mem_cap_mb")) {
      return *mb > 0 ? static_cast<std::int64_t>(*mb) * (1ll << 20) : 0;
    }
  }
  return 0;
}

} // namespace

backend backend_from_string(std::string_view name) {
  if (name == "serial") {
    return backend::serial;
  }
  if (name == "threads" || name == "Threads" || name == "base.threads") {
    return backend::threads;
  }
  if (name == "cpu_rome" || name == "rome" || name == "rome64") {
    return backend::cpu_rome;
  }
  if (name == "cuda_a100" || name == "cuda" || name == "CUDA" ||
      name == "a100") {
    return backend::cuda_a100;
  }
  if (name == "hip_mi100" || name == "amdgpu" || name == "AMDGPU" ||
      name == "hip" || name == "mi100") {
    return backend::hip_mi100;
  }
  if (name == "oneapi_max1550" || name == "oneapi" || name == "oneAPI" ||
      name == "max1550") {
    return backend::oneapi_max1550;
  }
  jaccx::throw_config_error("unknown JACC backend '" + std::string(name) +
                            "' (known: serial, threads, cpu_rome, cuda_a100, "
                            "hip_mi100, oneapi_max1550)");
}

bool is_simulated(backend b) {
  return b != backend::serial && b != backend::threads;
}

jaccx::sim::device* backend_device(backend b) {
  switch (b) {
  case backend::serial:
  case backend::threads: return nullptr;
  case backend::cpu_rome: return &jaccx::sim::get_device("rome64");
  case backend::cuda_a100: return &jaccx::sim::get_device("a100");
  case backend::hip_mi100: return &jaccx::sim::get_device("mi100");
  case backend::oneapi_max1550: return &jaccx::sim::get_device("max1550");
  }
  return nullptr;
}

void initialize() {
  g_backend.store(static_cast<int>(resolve_from_preferences()),
                  std::memory_order_release);
  jaccx::mem::set_mode(resolve_mem_pool());
  jaccx::mem::set_cache_cap(resolve_mem_cap());
  // External profiling tools (JACC_TOOLS_LIBS) attach here, before any
  // kernel can launch; the loader is idempotent across re-initialization.
  jaccx::prof::load_tools_from_env();
  // Close the measured-placement loop: prof's achieved-rate observations
  // (roofline rows, per-shard launches) land in auto_backend's registry.
  install_rate_feedback();
  // Tear down any lanes from a previous initialize/finalize cycle so the
  // lane policy (JACC_QUEUES vs. pool width) is re-read under the current
  // environment.  Surviving queue handles re-resolve on next submission.
  detail::quiesce_lanes();
}

backend current_backend() {
  int b = g_backend.load(std::memory_order_acquire);
  if (b < 0) {
    static std::once_flag once;
    // Unlike an explicit initialize(), the lazy path must not clobber a
    // mem-pool mode that was already pinned programmatically.
    std::call_once(once, [] {
      g_backend.store(static_cast<int>(resolve_from_preferences()),
                      std::memory_order_release);
      jaccx::mem::set_default_mode(resolve_mem_pool());
      jaccx::mem::set_default_cache_cap(resolve_mem_cap());
      jaccx::prof::load_tools_from_env();
      install_rate_feedback();
    });
    b = g_backend.load(std::memory_order_acquire);
  }
  return static_cast<backend>(b);
}

void set_backend(backend b) {
  g_backend.store(static_cast<int>(b), std::memory_order_release);
}

void save_preferences(backend b, const std::string& path) {
  jaccx::toml::table root;
  if (std::filesystem::exists(path)) {
    root = jaccx::toml::parse_file(path);
  }
  auto [it, inserted] = root.try_emplace(
      "JACC", jaccx::toml::value(std::make_shared<jaccx::toml::table>()));
  if (!it->second.is_table()) {
    jaccx::throw_config_error(
        "existing preferences file has a non-table [JACC] entry");
  }
  it->second.as_table().insert_or_assign(
      "backend", jaccx::toml::value(std::string(to_string(b))));
  jaccx::toml::write_file(root, path);
}

void finalize() {
  // Queues first: outstanding async work may still hold pool blocks, so the
  // drain/live assertions below are only meaningful once every queue is
  // quiescent.  quiesce_lanes() then drains and joins the lane dispatchers
  // themselves (asserting their deques are empty) — a lane thread that
  // outlived finalize could otherwise touch the pool after the drain.  Then
  // the profiling report, so its pool rows still show the cached bytes;
  // then return every cached block and workspace to the backing stores.
  synchronize();
  detail::quiesce_lanes();
  jaccx::prof::finalize();
  jaccx::mem::drain();
  const std::uint64_t live = jaccx::mem::live_blocks();
  if (live != 0) {
    std::fprintf(stderr,
                 "[jacc] warning: %llu jacc::array block(s) still live at "
                 "finalize (freed on release, but cannot be drained)\n",
                 static_cast<unsigned long long>(live));
  }
  JACCX_ASSERT(live == 0 && "jacc::finalize: live jacc::array blocks leaked");
}

} // namespace jacc
