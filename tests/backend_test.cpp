// Unit tests for backend naming, selection, and the Preferences.jl-style
// configuration chain.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include "core/backend.hpp"
#include "mem/pool.hpp"
#include "sim/device.hpp"
#include "support/error.hpp"

namespace jacc {
namespace {

/// Sets (or, with nullptr, unsets) one environment variable for a scope and
/// restores the previous value, so CI legs that export it stay intact.
class scoped_env {
public:
  scoped_env(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~scoped_env() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  scoped_env(const scoped_env&) = delete;
  scoped_env& operator=(const scoped_env&) = delete;

private:
  const char* name_;
  std::optional<std::string> old_;
};

class BackendTest : public ::testing::Test {
protected:
  void SetUp() override { saved_ = current_backend(); }
  void TearDown() override {
    set_backend(saved_);
    ::unsetenv("JACC_BACKEND");
    ::unsetenv("JACC_PREFERENCES_FILE");
  }
  backend saved_ = backend::threads;
};

TEST_F(BackendTest, NamesRoundTrip) {
  for (backend b : all_backends) {
    EXPECT_EQ(backend_from_string(to_string(b)), b);
  }
}

TEST_F(BackendTest, VendorAliases) {
  EXPECT_EQ(backend_from_string("cuda"), backend::cuda_a100);
  EXPECT_EQ(backend_from_string("CUDA"), backend::cuda_a100);
  EXPECT_EQ(backend_from_string("amdgpu"), backend::hip_mi100);
  EXPECT_EQ(backend_from_string("oneapi"), backend::oneapi_max1550);
  EXPECT_EQ(backend_from_string("rome"), backend::cpu_rome);
  EXPECT_EQ(backend_from_string("Threads"), backend::threads);
}

TEST_F(BackendTest, UnknownNameThrows) {
  EXPECT_THROW(backend_from_string("tpu"), jaccx::config_error);
}

TEST_F(BackendTest, SimulatedPredicate) {
  EXPECT_FALSE(is_simulated(backend::serial));
  EXPECT_FALSE(is_simulated(backend::threads));
  EXPECT_TRUE(is_simulated(backend::cpu_rome));
  EXPECT_TRUE(is_simulated(backend::cuda_a100));
  EXPECT_TRUE(is_simulated(backend::hip_mi100));
  EXPECT_TRUE(is_simulated(backend::oneapi_max1550));
}

TEST_F(BackendTest, BackendDeviceMapping) {
  EXPECT_EQ(backend_device(backend::serial), nullptr);
  EXPECT_EQ(backend_device(backend::threads), nullptr);
  ASSERT_NE(backend_device(backend::cuda_a100), nullptr);
  EXPECT_EQ(backend_device(backend::cuda_a100)->model().name, "a100");
  EXPECT_EQ(backend_device(backend::hip_mi100)->model().name, "mi100");
  EXPECT_EQ(backend_device(backend::oneapi_max1550)->model().name, "max1550");
  EXPECT_EQ(backend_device(backend::cpu_rome)->model().name, "rome64");
}

TEST_F(BackendTest, SetBackendTakesEffect) {
  set_backend(backend::serial);
  EXPECT_EQ(current_backend(), backend::serial);
  set_backend(backend::cuda_a100);
  EXPECT_EQ(current_backend(), backend::cuda_a100);
}

TEST_F(BackendTest, ScopedBackendRestores) {
  set_backend(backend::serial);
  {
    scoped_backend sb(backend::hip_mi100);
    EXPECT_EQ(current_backend(), backend::hip_mi100);
  }
  EXPECT_EQ(current_backend(), backend::serial);
}

TEST_F(BackendTest, EnvVariableWins) {
  ::setenv("JACC_BACKEND", "oneapi", 1);
  initialize();
  EXPECT_EQ(current_backend(), backend::oneapi_max1550);
}

TEST_F(BackendTest, EnvVariableBadValueThrows) {
  ::setenv("JACC_BACKEND", "quantum", 1);
  EXPECT_THROW(initialize(), jaccx::config_error);
}

TEST_F(BackendTest, PreferencesFileIsRead) {
  const std::string path = ::testing::TempDir() + "/LocalPreferences.toml";
  {
    std::ofstream out(path);
    out << "[JACC]\nbackend = \"mi100\"\n";
  }
  ::setenv("JACC_PREFERENCES_FILE", path.c_str(), 1);
  initialize();
  EXPECT_EQ(current_backend(), backend::hip_mi100);
  std::remove(path.c_str());
}

TEST_F(BackendTest, EnvOverridesPreferencesFile) {
  const std::string path = ::testing::TempDir() + "/LocalPreferences.toml";
  {
    std::ofstream out(path);
    out << "[JACC]\nbackend = \"mi100\"\n";
  }
  ::setenv("JACC_PREFERENCES_FILE", path.c_str(), 1);
  ::setenv("JACC_BACKEND", "serial", 1);
  initialize();
  EXPECT_EQ(current_backend(), backend::serial);
  std::remove(path.c_str());
}

TEST_F(BackendTest, MissingPreferencesFallsBackToThreads) {
  ::setenv("JACC_PREFERENCES_FILE", "/nonexistent/LocalPreferences.toml", 1);
  initialize();
  // Paper Sec. III: Base.Threads is JACC's default back end.
  EXPECT_EQ(current_backend(), backend::threads);
}

TEST_F(BackendTest, PreferencesFileWithoutJaccKeyFallsBack) {
  const std::string path = ::testing::TempDir() + "/OtherPrefs.toml";
  {
    std::ofstream out(path);
    out << "[SomethingElse]\nkey = 1\n";
  }
  ::setenv("JACC_PREFERENCES_FILE", path.c_str(), 1);
  initialize();
  EXPECT_EQ(current_backend(), backend::threads);
  std::remove(path.c_str());
}

TEST_F(BackendTest, OnePreferencesFileSetsBackendAndMemPool) {
  const jaccx::mem::pool_mode saved_mode = jaccx::mem::mode();
  const std::string path = ::testing::TempDir() + "/BothPrefs.toml";
  {
    std::ofstream out(path);
    out << "[JACC]\nbackend = \"mi100\"\nmem_pool = \"none\"\n";
  }
  ::setenv("JACC_PREFERENCES_FILE", path.c_str(), 1);
  {
    const scoped_env pool("JACC_MEM_POOL", nullptr);
    initialize();
    EXPECT_EQ(current_backend(), backend::hip_mi100);
    EXPECT_EQ(jaccx::mem::mode(), jaccx::mem::pool_mode::none);
    // Each key's env variable beats its TOML key, independently.
    {
      const scoped_env be("JACC_BACKEND", "serial");
      initialize();
      EXPECT_EQ(current_backend(), backend::serial);
      EXPECT_EQ(jaccx::mem::mode(), jaccx::mem::pool_mode::none);
    }
    {
      const scoped_env mp("JACC_MEM_POOL", "bucket");
      initialize();
      EXPECT_EQ(current_backend(), backend::hip_mi100);
      EXPECT_EQ(jaccx::mem::mode(), jaccx::mem::pool_mode::bucket);
    }
  }
  jaccx::mem::set_mode(saved_mode);
  std::remove(path.c_str());
}

TEST_F(BackendTest, MalformedScheduleRejected) {
  const scoped_env sched("JACC_SCHEDULE", "dynamc");
  EXPECT_THROW(initialize(), jaccx::config_error);
}

TEST_F(BackendTest, MalformedQueuesRejected) {
  const scoped_env queues("JACC_QUEUES", "two");
  EXPECT_THROW(initialize(), jaccx::config_error);
}

TEST_F(BackendTest, MalformedNumThreadsRejected) {
  const scoped_env threads("JACC_NUM_THREADS", "4x");
  EXPECT_THROW(initialize(), jaccx::config_error);
}

TEST_F(BackendTest, SynchronizeIsCallable) {
  synchronize(); // no-op by contract (paper Sec. IV)
}

} // namespace
} // namespace jacc
