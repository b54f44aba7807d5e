// Backend selection for the JACC front end.
//
// The paper (Sec. III) makes a point of *how* the back end is chosen: not in
// code, but through Julia's Preferences.jl, which persists the choice in
// LocalPreferences.toml before precompilation; vendor back ends coexist as
// weak dependencies.  JACC-CXX mirrors this: jacc::initialize() resolves the
// backend from (highest priority first)
//
//   1. the JACC_BACKEND environment variable,
//   2. the [JACC] backend = "..." key of a LocalPreferences.toml found at
//      JACC_PREFERENCES_FILE or ./LocalPreferences.toml,
//   3. the built-in default, "threads" (the paper's default back end).
//
// The memory-pool mode (JACC_MEM_POOL, key `mem_pool`) resolves through the
// same chain from the same single read of the file.
//
// Six back ends are compiled in:
//
//   serial          real execution, single thread (reference semantics)
//   threads         real execution on the Base.Threads-style pool
//   cpu_rome        simulated AMD EPYC 7742 (Base.Threads cost model)
//   cuda_a100       simulated NVIDIA A100 via the CUDA.jl-style layer
//   hip_mi100       simulated AMD MI100 via the AMDGPU.jl-style layer
//   oneapi_max1550  simulated Intel Max 1550 via the oneAPI.jl-style layer
//
// The first two run at wall-clock speed and are what a downstream user
// adopts; the last four execute functionally while charging a calibrated
// simulated clock, standing in for the paper's DOE testbeds.
#pragma once

#include <string>
#include <string_view>

namespace jaccx::sim {
class device;
}

namespace jacc {

enum class backend {
  serial,
  threads,
  cpu_rome,
  cuda_a100,
  hip_mi100,
  oneapi_max1550,
};

inline constexpr backend all_backends[] = {
    backend::serial,        backend::threads,   backend::cpu_rome,
    backend::cuda_a100,     backend::hip_mi100, backend::oneapi_max1550,
};

/// Canonical name ("threads", "cuda_a100", ...).  Constexpr + pure so a
/// profiling-disabled dispatch (which passes the name to a never-taken
/// cold branch) pays nothing for it — the compiler sinks it entirely.
constexpr std::string_view to_string(backend b) noexcept {
  switch (b) {
  case backend::serial: return "serial";
  case backend::threads: return "threads";
  case backend::cpu_rome: return "cpu_rome";
  case backend::cuda_a100: return "cuda_a100";
  case backend::hip_mi100: return "hip_mi100";
  case backend::oneapi_max1550: return "oneapi_max1550";
  }
  return "?";
}

/// Parses a backend name; accepts canonical names plus the vendor aliases
/// used in the paper ("cuda", "amdgpu", "oneapi", "rome").  Throws
/// jaccx::config_error on unknown names.
backend backend_from_string(std::string_view name);

/// True for the four backends that run on the device simulator.
bool is_simulated(backend b);

/// The simulated device behind b, or nullptr for serial/threads.
jaccx::sim::device* backend_device(backend b);

/// Resolves the preference chain (env var, LocalPreferences.toml, default)
/// and installs the result.  Also rejects a malformed JACC_NUM_THREADS,
/// JACC_SCHEDULE or JACC_QUEUES with config_error; the lazy readers of
/// those fall back to their defaults instead.  Called implicitly by the
/// first current_backend(); call explicitly to re-read preferences.
void initialize();

/// The backend all jacc constructs currently dispatch to.
backend current_backend();

/// Overrides the backend at runtime (tests and benches sweep this).
void set_backend(backend b);

/// Persists a backend choice to a LocalPreferences.toml, merging with any
/// existing content — the Preferences.set_preferences! analogue.  The next
/// initialize() in a process run from that directory picks it up.
void save_preferences(backend b,
                      const std::string& path = "LocalPreferences.toml");

/// RAII backend override.
class scoped_backend {
public:
  explicit scoped_backend(backend b) : saved_(current_backend()) {
    set_backend(b);
  }
  ~scoped_backend() { set_backend(saved_); }
  scoped_backend(const scoped_backend&) = delete;
  scoped_backend& operator=(const scoped_backend&) = delete;

private:
  backend saved_;
};

/// Waits for every jacc::queue's outstanding work and aligns all simulated
/// queue streams with their device clocks (see core/queue.hpp).  Under the
/// paper's fully synchronous model — no user queues — there is never
/// outstanding work and this stays a cheap no-op, so ported code keeps its
/// structure.
void synchronize();

/// Synchronizes every queue, then flushes the profiling layer: prints the
/// JACC_PROFILE=summary table and/or writes the JACC_TRACE_FILE Chrome
/// trace.  Safe to call any number of times; programs that never call it
/// still get their report from an atexit hook.
void finalize();

} // namespace jacc
