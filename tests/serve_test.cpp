// jaccx::serve scheduler invariants under contention (docs/SERVING.md):
// fair-share dispatch (no tenant starved at 2/4/8 tenants), strict
// priority ordering, admission deferral + completion after memory pressure
// clears, graph-replay jobs interleaved with eager jobs, overload
// rejection, per-tenant sim streams, and lane re-resolution across
// initialize() mid-serving.  Suite name "ServeTest" is the verify.sh /
// ci.yml filter (including the TSan leg: the scheduler's dispatch loop
// and the job handles are a genuine multi-threaded surface).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/jacc.hpp"
#include "mem/pool.hpp"
#include "serve/serve.hpp"

namespace jacc {
namespace {

using jaccx::serve::job_handle;
using jaccx::serve::job_status;
using jaccx::serve::options;
using jaccx::serve::priority;
using jaccx::serve::scheduler;

void bump(index_t i, array<double>& a) { a[i] = a[i] + 1.0; }

/// Spin until the job leaves the queued state (bounded).
void wait_until_running(const job_handle& h) {
  for (int spins = 0; spins < 20000; ++spins) {
    if (h.status() == job_status::running || h.terminal()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  FAIL() << "job never started";
}

class ServeTest : public ::testing::Test {
protected:
  void SetUp() override { saved_ = current_backend(); }
  void TearDown() override { set_backend(saved_); }
  backend saved_ = backend::threads;
};

TEST_F(ServeTest, SlotsResolveFromOptionsAndAuto) {
  set_backend(backend::serial);
  {
    scheduler sched;
    EXPECT_EQ(sched.slots(), 4); // auto off `threads`
  }
  {
    scheduler sched(options{.slots = 3});
    EXPECT_EQ(sched.slots(), 3);
  }
  set_backend(backend::threads);
  {
    scheduler sched;
    EXPECT_EQ(sched.slots(), std::max(1, queue_lane_count()));
  }
}

TEST_F(ServeTest, FairShareNoTenantStarved) {
  set_backend(backend::serial);
  const index_t n = 20'000;
  for (const int tenants : {2, 4, 8}) {
    scheduler sched(options{.slots = 2});
    std::vector<jaccx::serve::tenant> ts;
    for (int t = 0; t < tenants; ++t) {
      ts.push_back(sched.open_tenant("t" + std::to_string(t)));
    }
    std::mutex order_mu;
    std::vector<int> order; // tenant index per completion, append order
    constexpr int jobs_per_tenant = 6;
    for (int j = 0; j < jobs_per_tenant; ++j) {
      for (int t = 0; t < tenants; ++t) {
        sched.submit(ts[static_cast<std::size_t>(t)], [&, t](queue& q) {
          array<double> v(std::vector<double>(static_cast<std::size_t>(n),
                                              0.0));
          parallel_for(q, n, bump, v);
          q.synchronize();
          const std::lock_guard lock(order_mu);
          order.push_back(t);
        });
      }
    }
    sched.drain();
    const auto stats = sched.stats();
    ASSERT_EQ(stats.tenants.size(), static_cast<std::size_t>(tenants));
    for (const auto& row : stats.tenants) {
      EXPECT_EQ(row.completed, static_cast<std::uint64_t>(jobs_per_tenant))
          << row.name;
      EXPECT_EQ(row.failed, 0u) << row.name;
    }
    // Weighted fair queueing with equal weights interleaves: every tenant
    // must appear within the first 2*T completions — a starved tenant
    // would sit at the back until the others finished everything.
    const std::size_t window =
        std::min(order.size(), static_cast<std::size_t>(2 * tenants));
    std::vector<bool> seen(static_cast<std::size_t>(tenants), false);
    for (std::size_t i = 0; i < window; ++i) {
      seen[static_cast<std::size_t>(order[i])] = true;
    }
    for (int t = 0; t < tenants; ++t) {
      EXPECT_TRUE(seen[static_cast<std::size_t>(t)])
          << "tenant " << t << " starved at T=" << tenants;
    }
  }
}

TEST_F(ServeTest, PriorityClassesDispatchStrictlyOrdered) {
  set_backend(backend::serial);
  scheduler sched(options{.slots = 1}); // one worker: dispatch order == run order
  auto blocker_t = sched.open_tenant("blocker");
  auto low = sched.open_tenant("low", 1.0, priority::low);
  auto high = sched.open_tenant("high", 1.0, priority::high);

  std::atomic<bool> gate{false};
  std::mutex order_mu;
  std::vector<std::string> order;
  const auto logged = [&](const char* tag) {
    return [&, tag](queue&) {
      const std::lock_guard lock(order_mu);
      order.emplace_back(tag);
    };
  };

  const job_handle b = sched.submit(blocker_t, [&](queue&) {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  wait_until_running(b);
  // Low-class jobs are submitted FIRST; the later high-class jobs must
  // still dispatch before every one of them.
  for (int i = 0; i < 3; ++i) {
    sched.submit(low, logged("low"));
  }
  for (int i = 0; i < 3; ++i) {
    sched.submit(high, logged("high"));
  }
  gate.store(true, std::memory_order_release);
  sched.drain();

  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(order[i], "high") << i;
  }
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(order[i], "low") << i;
  }
}

TEST_F(ServeTest, AdmissionDefersUnderBudgetThenCompletes) {
  set_backend(backend::serial);
  const jaccx::mem::scoped_mode pooled(jaccx::mem::pool_mode::bucket);
  jaccx::mem::drain();
  const std::uint64_t baseline =
      jaccx::mem::live_bytes() + jaccx::mem::cached_bytes();
  constexpr std::uint64_t hint = 2u << 20;
  scheduler sched(
      options{.slots = 1, .mem_budget_bytes = baseline + 3 * (1u << 20)});
  auto t = sched.open_tenant("greedy");

  std::atomic<bool> gate{false};
  const index_t n = (1 << 20) / sizeof(double); // a 1 MiB pooled block
  const auto body = [&](queue& q) {
    array<double> v(std::vector<double>(static_cast<std::size_t>(n), 0.0));
    parallel_for(q, n, bump, v);
    q.synchronize();
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };

  const job_handle first = sched.submit(t, body, hint);
  wait_until_running(first);
  std::vector<job_handle> rest;
  for (int i = 0; i < 3; ++i) {
    rest.push_back(sched.submit(t, body, hint));
  }
  // With 2 MiB hinted in flight against a 3 MiB budget, every later job
  // must be parked by admission control, not queued.
  for (const job_handle& h : rest) {
    EXPECT_EQ(h.status(), job_status::deferred);
  }
  gate.store(true, std::memory_order_release);
  sched.drain();

  EXPECT_FALSE(first.was_deferred());
  for (const job_handle& h : rest) {
    EXPECT_EQ(h.status(), job_status::done) << h.error();
    EXPECT_TRUE(h.was_deferred());
  }
  const auto stats = sched.stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].completed, 4u);
  EXPECT_EQ(stats.tenants[0].deferred, 3u);
  EXPECT_EQ(stats.tenants[0].deferred_admitted, 3u);
  jaccx::mem::drain();
}

TEST_F(ServeTest, RejectsBeyondMaxPending) {
  set_backend(backend::serial);
  scheduler sched(options{.slots = 1, .max_pending = 2});
  auto t = sched.open_tenant("bursty");
  std::atomic<bool> gate{false};
  const job_handle blocker = sched.submit(t, [&](queue&) {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  wait_until_running(blocker);
  const job_handle a = sched.submit(t, [](queue&) {});
  const job_handle b = sched.submit(t, [](queue&) {});
  const job_handle shed = sched.submit(t, [](queue&) {});
  EXPECT_EQ(shed.status(), job_status::rejected);
  EXPECT_TRUE(shed.terminal());
  gate.store(true, std::memory_order_release);
  sched.drain();
  EXPECT_EQ(a.status(), job_status::done);
  EXPECT_EQ(b.status(), job_status::done);
  const auto stats = sched.stats();
  EXPECT_EQ(stats.tenants[0].rejected, 1u);
  EXPECT_EQ(stats.tenants[0].completed, 3u);
}

TEST_F(ServeTest, JobExceptionsAreCapturedNotFatal) {
  set_backend(backend::serial);
  scheduler sched(options{.slots = 1});
  auto t = sched.open_tenant("flaky");
  const job_handle bad = sched.submit(
      t, [](queue&) { throw std::runtime_error("boom"); });
  const job_handle good = sched.submit(t, [](queue&) {});
  sched.drain();
  EXPECT_EQ(bad.status(), job_status::failed);
  EXPECT_EQ(bad.error(), "boom");
  EXPECT_EQ(good.status(), job_status::done);
  const auto stats = sched.stats();
  EXPECT_EQ(stats.tenants[0].failed, 1u);
  EXPECT_EQ(stats.tenants[0].completed, 1u);
}

TEST_F(ServeTest, GraphReplayJobsInterleaveWithEagerJobs) {
  set_backend(backend::serial);
  const index_t n = 10'000;
  constexpr int jobs = 4;
  // Graph-tenant arrays and graphs live for the whole batch (one graph per
  // submission: one replay of a given graph at a time).  Captured kernels
  // hold move-only args (jacc::array) by reference, so the arrays must
  // stay at stable addresses until the last replay: reserve before
  // capturing anything.
  std::vector<array<double>> gv;
  std::vector<graph> graphs;
  gv.reserve(jobs);
  graphs.reserve(jobs);
  for (int j = 0; j < jobs; ++j) {
    gv.emplace_back(std::vector<double>(static_cast<std::size_t>(n), 0.0));
    queue qc;
    qc.begin_capture();
    parallel_for(qc, n, bump, gv.back());
    parallel_for(qc, n, bump, gv.back());
    graphs.push_back(qc.end_capture());
  }
  std::vector<array<double>> ev;
  for (int j = 0; j < jobs; ++j) {
    ev.emplace_back(std::vector<double>(static_cast<std::size_t>(n), 0.0));
  }

  scheduler sched(options{.slots = 2});
  auto replayer = sched.open_tenant("replayer");
  auto eager = sched.open_tenant("eager");
  for (int j = 0; j < jobs; ++j) {
    sched.submit(replayer, graphs[static_cast<std::size_t>(j)]);
    sched.submit(eager, [&, j](queue& q) {
      parallel_for(q, n, bump, ev[static_cast<std::size_t>(j)]);
      q.synchronize();
    });
  }
  sched.drain();

  const auto stats = sched.stats();
  for (const auto& row : stats.tenants) {
    EXPECT_EQ(row.completed, static_cast<std::uint64_t>(jobs)) << row.name;
    EXPECT_EQ(row.failed, 0u) << row.name;
  }
  for (int j = 0; j < jobs; ++j) {
    EXPECT_DOUBLE_EQ(gv[static_cast<std::size_t>(j)].to_host()[0], 2.0) << j;
    EXPECT_DOUBLE_EQ(ev[static_cast<std::size_t>(j)].to_host()[0], 1.0) << j;
  }
}

TEST_F(ServeTest, SimTenantsLandOnPerTenantSlotStreams) {
  set_backend(backend::cuda_a100);
  const index_t n = 4'096;
  constexpr int jobs = 3;
  scheduler sched(options{.slots = 4});
  EXPECT_EQ(sched.workers(), 1); // sim devices: one runner, many streams
  auto t0 = sched.open_tenant("sim0");
  auto t1 = sched.open_tenant("sim1");
  std::vector<array<double>> vs;
  for (int j = 0; j < 2 * jobs; ++j) {
    vs.emplace_back(std::vector<double>(static_cast<std::size_t>(n), 0.0));
  }
  for (int j = 0; j < jobs; ++j) {
    sched.submit(t0, [&, j](queue& q) {
      parallel_for(q, n, bump, vs[static_cast<std::size_t>(2 * j)]);
    });
    sched.submit(t1, [&, j](queue& q) {
      parallel_for(q, n, bump, vs[static_cast<std::size_t>(2 * j + 1)]);
    });
  }
  sched.drain();
  const auto stats = sched.stats();
  // Tenant index mod slots pins each tenant to its own sim stream.
  ASSERT_GE(stats.slots.size(), 2u);
  EXPECT_EQ(stats.slots[0].jobs, static_cast<std::uint64_t>(jobs));
  EXPECT_EQ(stats.slots[1].jobs, static_cast<std::uint64_t>(jobs));
  for (const auto& v : vs) {
    EXPECT_DOUBLE_EQ(v.to_host()[n - 1], 1.0);
  }
}

TEST_F(ServeTest, LaneReresolutionAcrossInitializeMidServing) {
  set_backend(backend::threads);
  const char* old_env = std::getenv("JACC_QUEUES");
  const std::string saved_env = old_env != nullptr ? old_env : "";
  const index_t n = 10'000;

  {
    scheduler sched(options{.slots = 2});
    auto t = sched.open_tenant("survivor");
    const auto batch = [&] {
      std::vector<array<double>> vs;
      for (int j = 0; j < 4; ++j) {
        vs.emplace_back(
            std::vector<double>(static_cast<std::size_t>(n), 0.0));
      }
      std::vector<job_handle> hs;
      for (int j = 0; j < 4; ++j) {
        hs.push_back(sched.submit(t, [&, j](queue& q) {
          parallel_for(q, n, bump, vs[static_cast<std::size_t>(j)]);
          q.synchronize();
        }));
      }
      sched.drain();
      for (const auto& h : hs) {
        EXPECT_EQ(h.status(), job_status::done) << h.error();
      }
      for (const auto& v : vs) {
        EXPECT_DOUBLE_EQ(v.to_host()[0], 1.0);
      }
    };

    batch(); // under the initial lane layout

    // Re-initialize mid-serving: lanes are quiesced and the policy
    // re-read; the scheduler's idle worker queues must re-resolve their
    // lanes on the next submission instead of indexing drained ones.
    ::setenv("JACC_QUEUES", "2", 1);
    initialize();
    set_backend(backend::threads);
    batch();

    ::setenv("JACC_QUEUES", "1", 1);
    initialize();
    set_backend(backend::threads);
    batch(); // degraded to the synchronous path mid-serving
  }

  if (!saved_env.empty()) {
    ::setenv("JACC_QUEUES", saved_env.c_str(), 1);
  } else {
    ::unsetenv("JACC_QUEUES");
  }
  initialize();
}

} // namespace
} // namespace jacc
