// Multi-device scenarios on jacc::device_set (paper Sec. VII future work):
// device instances, shard ranges, scatter/gather of sharded arrays,
// sharded parallel_for/parallel_reduce against single-device and host
// results, halo exchange through stencil launches, and the
// overlapping-clock timing semantics.  shard_test.cpp covers the plan,
// rebalance and error paths of the same layer.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/jacc.hpp"

namespace jacc {
namespace {

using jaccx::usage_error;

std::vector<double> iota_vec(index_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0.0);
  return v;
}

/// Whether `tl` logged a transfer or kernel whose name mentions `what`
/// (transfers log as "h2d <what>" / "d2h <what>").
bool logged(jaccx::sim::timeline& tl, const std::string& what) {
  for (const auto& e : tl.events()) {
    if (e.name.find(what) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(MultiContext, RejectsRealAndCpuBackends) {
  EXPECT_THROW(device_set(backend::threads, 2), usage_error);
  EXPECT_THROW(device_set(backend::serial, 2), usage_error);
  EXPECT_THROW(device_set(backend::cpu_rome, 2), usage_error);
  EXPECT_THROW(device_set(backend::cuda_a100, 0), usage_error);
}

TEST(MultiContext, DeviceInstancesAreDistinctPeers) {
  device_set ds(backend::cuda_a100, 3);
  EXPECT_EQ(ds.devices(), 3);
  EXPECT_NE(&ds.dev(0), &ds.dev(1));
  EXPECT_NE(&ds.dev(1), &ds.dev(2));
  EXPECT_EQ(ds.dev(0).model().name, "a100");
  EXPECT_EQ(ds.dev(2).model().name, "a100");
  // Index 0 is the shared single-device instance.
  EXPECT_EQ(&ds.dev(0), &jaccx::sim::get_device("a100"));
}

class MultiSharding : public ::testing::TestWithParam<int> {};

TEST_P(MultiSharding, ShardRangesTileTheArray) {
  device_set ds(backend::hip_mi100, GetParam());
  ds.reset_clocks();
  index_t covered = 0;
  index_t prev_end = 0;
  for (int d = 0; d < ds.devices(); ++d) {
    const auto r = ds.chunk(1001, d);
    EXPECT_EQ(r.begin, prev_end);
    covered += r.size();
    prev_end = r.end;
  }
  EXPECT_EQ(covered, 1001);
}

TEST_P(MultiSharding, ScatterGatherRoundTrip) {
  device_set ds(backend::cuda_a100, GetParam());
  ds.reset_clocks();
  const auto host = iota_vec(777);
  array<double> a(sharded(ds), host);
  EXPECT_EQ(a.to_host(), host);
}

TEST_P(MultiSharding, AxpyMatchesSingleDeviceResult) {
  device_set ds(backend::cuda_a100, GetParam());
  ds.reset_clocks();
  const index_t n = 10'000;
  array<double> x(sharded(ds),
                  std::vector<double>(static_cast<std::size_t>(n), 1.0));
  array<double> y(sharded(ds), iota_vec(n));
  {
    const device_set_scope scope(ds);
    parallel_for(n,
                 [](index_t i, array<double>& xs, const array<double>& ys) {
                   xs[i] += 2.0 * static_cast<double>(ys[i]);
                 },
                 x, y);
    ds.sync();
  }
  const auto out = x.to_host();
  // Element at global position g held y = g, so x must be 1 + 2g — for
  // every device count the result is the single-device result.
  for (index_t g = 0; g < n; ++g) {
    ASSERT_DOUBLE_EQ(out[static_cast<std::size_t>(g)],
                     1.0 + 2.0 * static_cast<double>(g));
  }
}

TEST_P(MultiSharding, ReduceMatchesHostSum) {
  device_set ds(backend::oneapi_max1550, GetParam());
  ds.reset_clocks();
  const index_t n = 4097;
  const auto host = iota_vec(n);
  array<double> x(sharded(ds), host);
  const device_set_scope scope(ds);
  const double got = parallel_reduce(
      n, [](index_t i, const array<double>& xs) {
        return static_cast<double>(xs[i]);
      },
      x);
  EXPECT_DOUBLE_EQ(got, std::accumulate(host.begin(), host.end(), 0.0));
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MultiSharding,
                         ::testing::Values(1, 2, 3, 4, 8),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

/// right[i] = u[i + r] and left[i] = u[i - r] where those exist: at a shard
/// edge the far read is a ghost cell the launch's halo exchange filled.
void read_neighbours(device_set& ds, index_t n, index_t r,
                     const array<double>& u, array<double>& left,
                     array<double>& right) {
  const device_set_scope scope(ds);
  parallel_for(hints::stencil(r), n,
               [n, r](index_t i, const array<double>& us, array<double>& ls,
                      array<double>& rs) {
                 ls[i] = i >= r ? static_cast<double>(us[i - r]) : -1.0;
                 rs[i] = i + r < n ? static_cast<double>(us[i + r]) : -1.0;
               },
               u, left, right);
}

TEST(MultiHalo, ExchangeMovesBoundaryCells) {
  device_set ds(backend::cuda_a100, 2);
  ds.reset_clocks();
  const index_t n = 10;
  array<double> u(sharded(ds), iota_vec(n));
  array<double> left(sharded(ds), n);
  array<double> right(sharded(ds), n);
  read_neighbours(ds, n, 2, u, left, right);
  // Device 0 owns [0,5), device 1 owns [5,10).  Device 0's right ghost
  // must hold {5, 6}; device 1's left ghost must hold {3, 4}.
  const auto r = right.to_host();
  EXPECT_DOUBLE_EQ(r[3], 5.0);
  EXPECT_DOUBLE_EQ(r[4], 6.0);
  const auto l = left.to_host();
  EXPECT_DOUBLE_EQ(l[5], 3.0);
  EXPECT_DOUBLE_EQ(l[6], 4.0);
}

TEST(MultiHalo, AsyncExchangeMovesTheSameCellsOnShardStreams) {
  device_set ds(backend::cuda_a100, 3);
  ds.reset_clocks();
  const index_t n = 12;
  array<double> u(sharded(ds), iota_vec(n));
  array<double> left(sharded(ds), n);
  array<double> right(sharded(ds), n);
  read_neighbours(ds, n, 1, u, left, right);
  // Data identical to a host exchange...
  const auto l = left.to_host();
  const auto r = right.to_host();
  for (index_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_DOUBLE_EQ(l[k], i >= 1 ? static_cast<double>(i - 1) : -1.0);
    EXPECT_DOUBLE_EQ(r[k], i + 1 < n ? static_cast<double>(i + 1) : -1.0);
  }
  // ...but the halo charges landed on the shard streams, not the device
  // clocks.
  for (int d = 0; d < ds.devices(); ++d) {
    EXPECT_TRUE(logged(ds.shard_stream(d).tl(), "shard.halo")) << "d=" << d;
    EXPECT_FALSE(logged(ds.dev(d).tl(), "shard.halo")) << "d=" << d;
  }
  EXPECT_GT(ds.shard_stream(0).now_us(), 0.0);
  ds.sync(); // folds streams back; device clocks catch up
  EXPECT_GE(ds.dev(0).tl().now_us(), ds.shard_stream(0).now_us());
  ds.reset_clocks();
}

TEST(MultiHalo, ShardStreamsAreLabeledPerShard) {
  device_set ds(backend::cuda_a100, 2);
  ds.reset_clocks();
  EXPECT_EQ(ds.shard_stream(0).tl().label(), "a100.shard0");
  EXPECT_EQ(ds.shard_stream(1).tl().label(), "a100.shard1");
  ds.reset_clocks();
}

TEST(MultiHalo, StencilAcrossShardsMatchesSerial) {
  // 1D 3-point smoother over 2 and 4 devices with uneven chunks must equal
  // the serial result; the stencil hint exchanges halos before each sweep.
  const index_t n = 257;
  const auto init = iota_vec(n);
  auto serial = init;
  for (int sweep = 0; sweep < 3; ++sweep) {
    auto next = serial;
    for (index_t i = 1; i + 1 < n; ++i) {
      next[static_cast<std::size_t>(i)] =
          (serial[static_cast<std::size_t>(i - 1)] +
           serial[static_cast<std::size_t>(i)] +
           serial[static_cast<std::size_t>(i + 1)]) /
          3.0;
    }
    serial = next;
  }

  for (int ndev : {2, 4}) {
    device_set ds(backend::hip_mi100, ndev);
    ds.reset_clocks();
    array<double> u(sharded(ds), init);
    array<double> next(sharded(ds), init);
    const device_set_scope scope(ds);
    for (int sweep = 0; sweep < 3; ++sweep) {
      parallel_for(hints::stencil(1), n,
                   [n](index_t i, const array<double>& us,
                       array<double>& ns) {
                     if (i == 0 || i == n - 1) {
                       ns[i] = static_cast<double>(us[i]);
                       return;
                     }
                     ns[i] = (static_cast<double>(us[i - 1]) +
                              static_cast<double>(us[i]) +
                              static_cast<double>(us[i + 1])) /
                             3.0;
                   },
                   u, next);
      std::swap(u, next);
    }
    ds.sync();
    const auto got = u.to_host();
    for (index_t i = 0; i < n; ++i) {
      ASSERT_NEAR(got[static_cast<std::size_t>(i)],
                  serial[static_cast<std::size_t>(i)], 1e-12)
          << "ndev=" << ndev << " i=" << i;
    }
  }
}

TEST(MultiTiming, DevicesOverlap) {
  // The same total work on 1 vs 4 devices must take ~1/4 the wall time
  // (bandwidth-bound region, one kernel per device, clocks overlap).
  const index_t n = 1 << 20;
  auto run = [&](int ndev) {
    device_set ds(backend::cuda_a100, ndev);
    ds.reset_clocks();
    array<double> x(sharded(ds),
                    std::vector<double>(static_cast<std::size_t>(n), 1.0));
    array<double> y(sharded(ds),
                    std::vector<double>(static_cast<std::size_t>(n), 2.0));
    ds.reset_clocks(); // exclude the scatter
    const device_set_scope scope(ds);
    parallel_for(n,
                 [](index_t i, array<double>& xs, const array<double>& ys) {
                   xs[i] += 2.0 * static_cast<double>(ys[i]);
                 },
                 x, y);
    return ds.sync();
  };
  const double t1 = run(1);
  const double t4 = run(4);
  EXPECT_LT(t4, t1 / 2.0);
  EXPECT_GT(t4, t1 / 8.0); // launch overheads keep it from perfect scaling
}

TEST(MultiTiming, SyncAlignsClocks) {
  device_set ds(backend::hip_mi100, 2);
  ds.reset_clocks();
  // Unbalanced explicit work on device 0 only.
  ds.dev(0).charge_h2d(1 << 20, "skew");
  EXPECT_GT(ds.dev(0).tl().now_us(), ds.dev(1).tl().now_us());
  const double t = ds.sync();
  EXPECT_DOUBLE_EQ(ds.dev(0).tl().now_us(), t);
  EXPECT_DOUBLE_EQ(ds.dev(1).tl().now_us(), t);
}

TEST(MultiArray, EmptyAndTinyArrays) {
  device_set ds(backend::cuda_a100, 4);
  ds.reset_clocks();
  array<double> empty(sharded(ds), 0);
  EXPECT_TRUE(empty.to_host().empty());
  // Fewer elements than devices: trailing shards are empty.
  array<double> tiny(sharded(ds), std::vector<double>{1.0, 2.0});
  EXPECT_EQ(ds.chunk(2, 0).size(), 1);
  EXPECT_EQ(ds.chunk(2, 3).size(), 0);
  EXPECT_EQ(tiny.to_host(), (std::vector<double>{1.0, 2.0}));
  const device_set_scope scope(ds);
  const double s = parallel_reduce(
      2, [](index_t i, const array<double>& xs) {
        return static_cast<double>(xs[i]);
      },
      tiny);
  EXPECT_DOUBLE_EQ(s, 3.0);
}

} // namespace
} // namespace jacc
