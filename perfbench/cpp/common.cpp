#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>

#include "core/jacc.hpp"
#include "mem/pool.hpp"
#include "threadpool/thread_pool.hpp"

namespace perfbench {

// --- time ---------------------------------------------------------------------

namespace {
std::uint64_t g_start_ns = 0;
} // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock_type::now().time_since_epoch())
          .count());
}

void mark_process_start() { g_start_ns = now_ns(); }
std::uint64_t process_start_ns() { return g_start_ns; }

// --- percentiles ----------------------------------------------------------------

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  // Nearest rank in integer arithmetic on tenths of a percent, so p99 of
  // 1000 samples is exactly rank 990 (no floating-point ceil drift).
  const auto tenths = static_cast<std::uint64_t>(std::llround(p * 10.0));
  const std::uint64_t n = sorted.size();
  std::uint64_t rank = (tenths * n + 999) / 1000;
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  return sorted[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double highest_supported_percentile(std::size_t count, std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const auto tenths = static_cast<std::uint64_t>(std::llround(p * 10.0));
    const std::uint64_t rank = (tenths * count + 999) / 1000;
    if (count >= rank && count - rank >= min_beyond) {
      return p;
    }
  }
  return 0.0;
}

summary summarize(std::vector<double> v) {
  summary s;
  s.count = v.size();
  s.p50 = median(v);
  s.tail_pct = highest_supported_percentile(v.size());
  if (s.tail_pct > 0.0) {
    std::sort(v.begin(), v.end());
    s.tail = percentile_sorted(v, s.tail_pct);
  }
  return s;
}

// --- generator ------------------------------------------------------------------

const char* to_string(job_kind k) {
  switch (k) {
  case job_kind::cg: return "cg";
  case job_kind::cg_graph: return "cg_graph";
  case job_kind::lbm: return "lbm";
  case job_kind::blas: return "blas";
  }
  return "?";
}

namespace {

template <std::size_t N>
void append_kind(std::vector<std::pair<job_kind, int>>& block, job_kind k,
                 const int (&sizes)[N]) {
  for (int i = 0; i < kind_counts[static_cast<int>(k)]; ++i) {
    block.emplace_back(k, sizes[static_cast<std::size_t>(i) % N]);
  }
}

/// Block `b` of the stratified mix for `seed`: exact kind and size counts,
/// Fisher-Yates shuffled.
std::vector<std::pair<job_kind, int>> mix_block(std::uint64_t seed,
                                                std::uint64_t b) {
  std::vector<std::pair<job_kind, int>> block;
  append_kind(block, job_kind::cg, cg_sizes);
  append_kind(block, job_kind::cg_graph, cg_sizes);
  append_kind(block, job_kind::lbm, lbm_sizes);
  append_kind(block, job_kind::blas, blas_sizes);
  splitmix rng((seed ^ 0x6A09E667F3BCC909ull) * 0x9E3779B97F4A7C15ull + b);
  for (std::size_t i = block.size() - 1; i > 0; --i) {
    std::swap(block[i], block[rng.next() % (i + 1)]);
  }
  return block;
}

/// Kind and size of job `index` (0-based) of the stratified mix.
std::pair<job_kind, int> mix_job(std::uint64_t seed, std::uint64_t index) {
  return mix_block(seed, index / mix_block_jobs)[index % mix_block_jobs];
}

} // namespace

std::vector<job_spec> make_schedule(std::uint64_t seed, const mix_params& p) {
  splitmix rng(seed * 0x2545F4914F6CDD1Dull + 1);
  std::vector<job_spec> out;
  std::vector<std::pair<job_kind, int>> block;
  double t = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    // Inverse-transform exponential gap: portable across standard
    // libraries, unlike std::exponential_distribution.
    t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / p.rate_per_s;
    if (t >= p.duration_s) {
      break;
    }
    if (i % mix_block_jobs == 0) {
      block = mix_block(seed, i / mix_block_jobs);
    }
    job_spec j;
    j.id = i + 1;
    j.arrival_s = t;
    std::tie(j.kind, j.size) = block[i % mix_block_jobs];
    j.tenant = static_cast<int>(rng.next() % static_cast<std::uint64_t>(p.tenants));
    j.seed = rng.next();
    out.push_back(j);
  }
  return out;
}

job_spec closed_loop_job(std::uint64_t seed, std::uint64_t index, int tenants) {
  const std::uint64_t cseed = seed + 0x5851F42D4C957F2Dull;
  splitmix rng(cseed * 0x9E3779B97F4A7C15ull + index);
  job_spec j;
  j.id = index;
  std::tie(j.kind, j.size) = mix_job(cseed, index);
  j.tenant = static_cast<int>(rng.next() % static_cast<std::uint64_t>(tenants));
  j.seed = rng.next();
  return j;
}

// --- spans ----------------------------------------------------------------------

std::vector<std::uint64_t> self_times(const std::vector<span>& spans) {
  std::map<std::uint64_t, std::size_t> slot;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    slot[spans[i].id] = i;
  }
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const span& s : spans) {
    const auto it = slot.find(s.parent);
    if (s.parent == 0 || it == slot.end()) {
      continue;
    }
    const span& p = spans[it->second];
    const std::uint64_t a = std::max(s.start_ns, p.start_ns);
    const std::uint64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) {
      kids[it->second].emplace_back(a, b);
    }
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_a = 0;
    std::uint64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) {
          covered += cur_b - cur_a;
        }
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) {
      covered += cur_b - cur_a;
    }
    out[i] = dur - std::min(dur, covered);
  }
  return out;
}

namespace {
thread_local std::vector<std::uint64_t> t_stack;
} // namespace

span_log& span_log::get() {
  static span_log log;
  return log;
}

std::uint64_t span_log::open(std::string name, std::uint64_t job,
                             std::uint64_t parent) {
  if (!enabled()) {
    return 0;
  }
  if (parent == 0 && !t_stack.empty()) {
    parent = t_stack.back();
  }
  const std::uint64_t id = add(std::move(name), parent, job, now_ns(), 0);
  t_stack.push_back(id);
  return id;
}

void span_log::close(std::uint64_t id) {
  set_end(id, now_ns());
  if (!t_stack.empty() && t_stack.back() == id) {
    t_stack.pop_back();
  }
}

std::uint64_t span_log::add(std::string name, std::uint64_t parent,
                            std::uint64_t job, std::uint64_t start_ns,
                            std::uint64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(span{id, parent, job, std::move(name), start_ns, end_ns});
  return id;
}

void span_log::set_end(std::uint64_t id, std::uint64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (id >= 1 && id <= spans_.size()) {
    spans_[id - 1].end_ns = end_ns;
  }
}

std::size_t span_log::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool span_log::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::uint64_t> self = self_times(spans_);
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"job\": " << s.job << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << self[i] << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// --- results --------------------------------------------------------------------

void result::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    failed(1, what);
  }
}

void result::failed(std::uint64_t n, const std::string& what) {
  failed_ += n;
  std::printf("FAILED: %s\n", what.c_str());
  std::fflush(stdout);
}

void result::info(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  std::printf("  %-34s %14.6g %-12s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : " ", note.c_str());
}

namespace {
std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
} // namespace

void result::print_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics_[i].first << "\": {\"value\": "
       << json_number(metrics_[i].second.first) << ", \"unit\": \""
       << metrics_[i].second.second << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// --- host probes ----------------------------------------------------------------

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

} // namespace

void print_configuration() {
  const auto sched = jaccx::pool::default_pool().current_schedule();
  std::printf("configuration (resolved):\n");
  std::printf("  nproc                 %u\n", std::thread::hardware_concurrency());
  std::printf("  JACC_NUM_THREADS      %s (pool width %u)\n",
              env_or("JACC_NUM_THREADS", "unset").c_str(),
              jaccx::pool::default_pool().size());
  std::printf("  JACC_QUEUES           %d lanes x %u workers\n",
              jacc::queue_lane_count(), jacc::queue_lane_width());
  std::printf("  JACC_MEM_POOL         %s\n",
              std::string(jaccx::mem::to_string(jaccx::mem::mode())).c_str());
  std::printf("  JACC_FUSE             %s\n",
              std::string(jacc::to_string(jacc::fuse())).c_str());
  std::printf("  JACC_SHARD            %s\n",
              env_or("JACC_SHARD", "auto").c_str());
  std::printf("  JACC_SCHEDULE         %s (grain %lld)\n",
              sched.kind == jaccx::pool::schedule_kind::static_chunks
                  ? "static"
                  : "dynamic",
              static_cast<long long>(sched.grain));
  std::printf("  JACC_PROFILE          %s\n",
              env_or("JACC_PROFILE", "unset").c_str());
  for (int i = 0; i < 4; ++i) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string size = read_line(base + "size");
    if (!size.empty()) {
      std::printf("  cache L%s %-11s %s\n", read_line(base + "level").c_str(),
                  read_line(base + "type").c_str(), size.c_str());
    }
  }
  std::fflush(stdout);
}

double stream_triad_gbps(unsigned threads, std::size_t elems, int reps) {
  std::vector<double> a(elems), b(elems), c(elems);
  const auto sweep = [&](auto&& body) {
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        const std::size_t lo = elems * t / threads;
        const std::size_t hi = elems * (t + 1) / threads;
        body(lo, hi);
      });
    }
    for (auto& th : ts) {
      th.join();
    }
  };
  // First touch by the same partition the timed sweeps use.
  sweep([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    sweep([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        a[i] = b[i] + 3.0 * c[i];
      }
    });
    const double s = seconds_between(t0, now_ns());
    best = std::max(best, 24.0 * static_cast<double>(elems) / s * 1e-9);
  }
  if (a[elems / 2] != 7.0) {
    return 0.0;
  }
  return best;
}

} // namespace perfbench
