// Unit test of the benchmark's own helpers: the percentile rule, the
// seeded schedule generator and the span self-time arithmetic.  Exits
// nonzero on the first failed expectation.
//
//   .bench_build/perfbench_helpers_test
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) {
    ++g_failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(i + 1);
  }
  return v;
}

void percentile_rule() {
  expect(highest_supported_percentile(1000) == 99.0,
         "1000 samples support p99 (exactly 10 beyond)");
  expect(highest_supported_percentile(999) == 95.0,
         "999 samples fall back to p95");
  expect(highest_supported_percentile(10000) == 99.9,
         "10000 samples support p99.9");
  expect(highest_supported_percentile(40) == 75.0, "40 samples support p75");
  expect(highest_supported_percentile(39) == 0.0,
         "39 samples support no tail percentile");

  const summary s = summarize(ramp(1000));
  expect(s.count == 1000 && s.tail_pct == 99.0 && s.tail == 990.0,
         "p99 of 1..1000 is the nearest-rank value 990");
  expect(s.p50 == 500.5, "median of 1..1000 is 500.5");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd-count median");
  expect(median({}) == 0.0, "empty median is 0");
  std::vector<double> sorted = ramp(100);
  expect(percentile_sorted(sorted, 100.0) == 100.0, "p100 is the maximum");
  expect(percentile_sorted(sorted, 1.0) == 1.0, "p1 of 100 is rank 1");
}

bool same(const std::vector<job_spec>& a, const std::vector<job_spec>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].arrival_s != b[i].arrival_s ||
        a[i].kind != b[i].kind || a[i].size != b[i].size ||
        a[i].tenant != b[i].tenant || a[i].seed != b[i].seed) {
      return false;
    }
  }
  return true;
}

void generator() {
  const mix_params p{.rate_per_s = 150.0, .duration_s = 9.0, .tenants = 8};
  const auto a = make_schedule(7, p);
  const auto b = make_schedule(7, p);
  const auto c = make_schedule(8, p);
  expect(same(a, b), "same seed gives an identical schedule");
  expect(!same(a, c), "another seed gives another schedule");
  // Poisson count at 1350 expected arrivals: within 5 sigma.
  expect(std::abs(static_cast<double>(a.size()) - 1350.0) < 5.0 * 36.8,
         "arrival count matches the rate");
  bool ordered = true;
  int kinds[job_kinds] = {};
  int tenants_seen[8] = {};
  for (std::size_t i = 0; i < a.size(); ++i) {
    ordered &= a[i].arrival_s >= 0.0 && a[i].arrival_s < p.duration_s &&
               (i == 0 || a[i].arrival_s >= a[i - 1].arrival_s);
    ++kinds[static_cast<int>(a[i].kind)];
    ++tenants_seen[a[i].tenant];
  }
  expect(ordered, "arrivals are sorted and inside the phase");
  bool all_kinds = true;
  for (const int k : kinds) {
    all_kinds &= k > 0;
  }
  bool all_tenants = true;
  for (const int t : tenants_seen) {
    all_tenants &= t > 0;
  }
  expect(all_kinds && all_tenants, "every kind and tenant occurs");
  int block_kinds[job_kinds] = {};
  int cg_16k = 0;
  for (int i = 0; i < mix_block_jobs; ++i) {
    ++block_kinds[static_cast<int>(a[static_cast<std::size_t>(i)].kind)];
    cg_16k += a[static_cast<std::size_t>(i)].kind == job_kind::cg &&
              a[static_cast<std::size_t>(i)].size == 16384;
  }
  bool exact = cg_16k == kind_counts[0] / 3;
  for (int k = 0; k < job_kinds; ++k) {
    exact &= block_kinds[k] == kind_counts[k];
  }
  expect(exact, "each block of the mix holds the exact kind and size counts");
  const job_spec j1 = closed_loop_job(7, 3, 8);
  const job_spec j2 = closed_loop_job(7, 3, 8);
  expect(j1.kind == j2.kind && j1.size == j2.size && j1.seed == j2.seed &&
             j1.tenant == j2.tenant,
         "closed-loop jobs depend only on (seed, index)");
}

void self_time() {
  // root [0,100] with children [10,30] and [20,50] (overlapping: union 40)
  // and [90,120] (clipped to [90,100]: 10); grandchild [12,18] under the
  // first child.
  std::vector<span> s = {
      {1, 0, 0, "root", 0, 100},  {2, 1, 0, "a", 10, 30},
      {3, 1, 0, "b", 20, 50},     {4, 1, 0, "c", 90, 120},
      {5, 2, 0, "a.x", 12, 18},   {6, 0, 0, "lone", 5, 5},
  };
  const auto self = self_times(s);
  expect(self[0] == 50, "root self = 100 - (40 + 10)");
  expect(self[1] == 14, "child self = 20 - 6");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 6,
         "leaves keep their whole duration");
  expect(self[5] == 0, "empty span has zero self time");
}

} // namespace

int main() {
  percentile_rule();
  generator();
  self_time();
  std::printf("%s\n", g_failures == 0 ? "all helper tests passed"
                                      : "helper tests FAILED");
  return g_failures == 0 ? 0 : 1;
}
