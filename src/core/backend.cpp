#include "core/backend.hpp"

#include <atomic>
#include <cstdint>
#include <cstdio>
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
#include "threadpool/thread_pool.hpp"
#include "toml/parser.hpp"
#include "toml/writer.hpp"

namespace jacc {
namespace {

std::atomic<int> g_backend{-1}; // -1: not yet initialized

/// The two configuration-time choices (paper Sec. III), each resolved
/// env > LocalPreferences.toml (`JACC.backend`, `JACC.mem_pool`) > default.
/// The preferences file is parsed once, and only when some key has no env
/// override.
struct preferences {
  backend be = backend::threads; // paper Sec. III: Base.Threads is the default
  jaccx::mem::pool_mode mem_pool = jaccx::mem::pool_mode::bucket;
};

jaccx::mem::pool_mode mem_pool_from_string(const std::string& name,
                                           const char* source) {
  if (const auto m = jaccx::mem::parse_mode(name)) {
    return *m;
  }
  jaccx::throw_config_error("unknown " + std::string(source) + " '" + name +
                            "' (known: bucket, none)");
}

preferences resolve_preferences() {
  const auto env_backend = jaccx::get_env("JACC_BACKEND");
  const auto env_pool = jaccx::get_env("JACC_MEM_POOL");
  jaccx::toml::table file;
  if (!env_backend || !env_pool) {
    const std::string path =
        jaccx::get_env("JACC_PREFERENCES_FILE").value_or(
            "LocalPreferences.toml");
    if (std::filesystem::exists(path)) {
      file = jaccx::toml::parse_file(path);
    }
  }
  preferences p;
  if (env_backend) {
    p.be = backend_from_string(*env_backend);
  } else if (const auto name =
                 jaccx::toml::find_string(file, "JACC.backend")) {
    p.be = backend_from_string(*name);
  }
  if (env_pool) {
    p.mem_pool = mem_pool_from_string(*env_pool, "JACC_MEM_POOL");
  } else if (const auto name =
                 jaccx::toml::find_string(file, "JACC.mem_pool")) {
    p.mem_pool = mem_pool_from_string(*name, "JACC.mem_pool");
  }
  return p;
}

/// The thread pool and the lane registry read JACC_NUM_THREADS,
/// JACC_SCHEDULE and JACC_QUEUES lazily and must not throw there (they run
/// inside launches), so they fall back to their automatic defaults on a
/// malformed value.  initialize() is where such a value is rejected.
void check_runtime_settings() {
  if (const auto spec = jaccx::get_env("JACC_SCHEDULE");
      spec && !jaccx::pool::parse_schedule(*spec)) {
    jaccx::throw_config_error("bad JACC_SCHEDULE '" + *spec +
                              "' (want static or dynamic[,grain])");
  }
  for (const char* name : {"JACC_NUM_THREADS", "JACC_QUEUES"}) {
    if (const auto v = jaccx::get_env(name)) {
      if (const auto n = jaccx::parse_long(*v); !n || *n < 1) {
        jaccx::throw_config_error("bad " + std::string(name) + " '" + *v +
                                  "' (want a positive integer)");
      }
    }
  }
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
  const preferences p = resolve_preferences();
  check_runtime_settings();
  g_backend.store(static_cast<int>(p.be), std::memory_order_release);
  jaccx::mem::set_mode(p.mem_pool);
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
      const preferences p = resolve_preferences();
      g_backend.store(static_cast<int>(p.be), std::memory_order_release);
      jaccx::mem::set_default_mode(p.mem_pool);
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
