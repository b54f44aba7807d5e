// Aggregation and output for jaccx::prof: the per-kernel stats table
// (JACC_PROFILE=summary) and the unified Chrome-trace JSON exporter
// (JACC_PROFILE=trace + JACC_TRACE_FILE).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "prof/internal.hpp"
#include "prof/prof.hpp"

namespace jaccx::prof {

namespace {

bool is_kernel_kind(construct c) {
  return c == construct::parallel_for || c == construct::parallel_reduce ||
         c == construct::region;
}

/// Folds every ring (resident window + overflow aggregates) into one map.
agg_map fold_all_rings() {
  agg_map out;
  for (const event_ring* ring : internal::ring_snapshot()) {
    for (const auto& [key, value] : ring->overflow()) {
      out[key].merge(value);
    }
    const std::uint64_t count = ring->count();
    const std::uint64_t resident = ring->resident();
    for (std::uint64_t i = count - resident; i < count; ++i) {
      const record& r = ring->at(i);
      out[agg_key{r.name, r.kind, r.backend.data()}].fold(r);
    }
  }
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
      break;
    case '\n':
      out += "\\n";
      break;
    case '\t':
      out += "\\t";
      break;
    case '\r':
      out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
  }
  return out;
}

/// Chrome traces key on pid/tid; pid 1 is the host (real wall clock, one
/// tid per event ring), and each simulated device gets its own pid so its
/// simulated-microsecond timeline reads as a separate process track.
constexpr int host_pid = 1;

void append_meta(std::ostringstream& os, bool& first, int pid, int tid,
                 std::string_view what, std::string_view name) {
  if (!first) {
    os << ",\n";
  }
  first = false;
  os << "  {\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"name\":\"" << what << "\",\"args\":{\"name\":\""
     << json_escape(name) << "\"}}";
}

/// Signature of "what data exists right now" for finalize idempotence.
std::uint64_t current_signature() {
  std::uint64_t sig = 0x9e3779b97f4a7c15ull;
  for (const event_ring* ring : internal::ring_snapshot()) {
    sig = sig * 1099511628211ull + ring->count();
  }
  sig = sig * 1099511628211ull + internal::sim_snapshot().size();
  return sig;
}

} // namespace

std::vector<kernel_stats> aggregate_kernels() {
  std::vector<kernel_stats> out;
  for (const auto& [key, value] : fold_all_rings()) {
    if (!is_kernel_kind(key.kind)) {
      continue;
    }
    kernel_stats row;
    row.name = key.name != nullptr ? *key.name : std::string("?");
    row.kind = key.kind;
    row.backend = key.backend != nullptr
                      ? std::string(static_cast<const char*>(key.backend))
                      : std::string();
    row.count = value.count;
    row.units = value.units;
    row.total_us = static_cast<double>(value.total_ns) * 1e-3;
    row.min_us = value.count != 0
                     ? static_cast<double>(value.min_ns) * 1e-3
                     : 0.0;
    row.max_us = static_cast<double>(value.max_ns) * 1e-3;
    if (value.total_ns != 0) {
      // flops/ns == Gflop/s, bytes/ns == GB/s.
      row.gflops_per_s = value.flops / static_cast<double>(value.total_ns);
      row.gbytes_per_s = value.bytes / static_cast<double>(value.total_ns);
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(),
            [](const kernel_stats& a, const kernel_stats& b) {
              if (a.total_us != b.total_us) {
                return a.total_us > b.total_us;
              }
              return a.name < b.name;
            });
  return out;
}

memory_stats aggregate_memory() {
  memory_stats m;
  for (const auto& [key, value] : fold_all_rings()) {
    switch (key.kind) {
    case construct::alloc:
      m.allocs += value.count;
      m.alloc_bytes += value.units;
      break;
    case construct::free_:
      m.frees += value.count;
      m.free_bytes += value.units;
      break;
    case construct::copy_h2d:
      m.h2d_copies += value.count;
      m.h2d_bytes += value.units;
      break;
    case construct::copy_d2h:
      m.d2h_copies += value.count;
      m.d2h_bytes += value.units;
      break;
    default:
      break;
    }
  }
  return m;
}

std::vector<pool_stats> aggregate_pools() {
  std::vector<pool_stats> out = internal::pool_snapshot();
  std::erase_if(out, [](const pool_stats& p) { return p.regions == 0; });
  return out;
}

async_stats aggregate_async() {
  async_stats a;
  std::map<std::string, comm_stat> comms;
  std::map<std::string, lane_util> lanes;
  for (const auto& [key, value] : fold_all_rings()) {
    const std::string name = key.name != nullptr ? *key.name : std::string();
    switch (key.kind) {
    case construct::queue_submit:
      a.queue_submits += value.count;
      break;
    case construct::queue_task: {
      a.queue_tasks += value.count;
      a.queue_task_us += static_cast<double>(value.total_ns) * 1e-3;
      lane_util& l = lanes[name];
      l.label = name;
      l.tasks += value.count;
      l.busy_us += static_cast<double>(value.total_ns) * 1e-3;
      break;
    }
    case construct::graph_replay:
      a.graph_replays += value.count;
      a.graph_nodes += value.units;
      a.graph_kernels += value.aux;
      a.graph_replay_us += static_cast<double>(value.total_ns) * 1e-3;
      break;
    case construct::future_wait:
      a.future_waits += value.count;
      a.future_wait_us += static_cast<double>(value.total_ns) * 1e-3;
      break;
    case construct::comm: {
      comm_stat& c = comms[name];
      c.name = name;
      c.count += value.count;
      c.bytes += value.units;
      break;
    }
    default:
      break;
    }
  }
  for (auto& [_, l] : lanes) {
    a.lanes.push_back(std::move(l));
  }
  for (auto& [_, c] : comms) {
    a.comms.push_back(std::move(c));
  }
  return a;
}

namespace {

/// Fills the rate/placement fields from (flops, bytes, time, peaks).
void place_on_roof(roofline_stats& r) {
  if (r.time_us > 0.0) {
    // bytes/us == MB/s; /1e3 == GB/s.  flops/us/1e3 == GF/s.
    r.achieved_gbps = r.bytes / r.time_us * 1e-3;
    r.achieved_gflops = r.flops / r.time_us * 1e-3;
  }
  r.intensity = r.bytes > 0.0 ? r.flops / r.bytes : 0.0;
  if (r.peak.gbps > 0.0 && r.peak.gflops > 0.0) {
    r.ridge = r.peak.gflops / r.peak.gbps;
    r.memory_bound = r.intensity < r.ridge;
    r.attainable_gflops =
        std::min(r.peak.gflops, r.intensity * r.peak.gbps);
    if (r.flops > 0.0 && r.attainable_gflops > 0.0) {
      r.pct_of_roof = 100.0 * r.achieved_gflops / r.attainable_gflops;
    } else if (r.peak.gbps > 0.0) {
      // Pure data-movement kernel: place it against the bandwidth roof.
      r.pct_of_roof = 100.0 * r.achieved_gbps / r.peak.gbps;
    }
  }
}

} // namespace

std::vector<roofline_stats> aggregate_roofline() {
  std::vector<roofline_stats> out;

  // Host rows: real wall-clock rates from the ring aggregates' hints, only
  // for backends that actually execute on the host clock.
  for (const auto& [key, value] : fold_all_rings()) {
    if (key.kind != construct::parallel_for &&
        key.kind != construct::parallel_reduce) {
      continue;
    }
    const std::string backend =
        key.backend != nullptr
            ? std::string(static_cast<const char*>(key.backend))
            : std::string();
    if (backend != "serial" && backend != "threads") {
      continue;
    }
    if (value.flops <= 0.0 && value.bytes <= 0.0) {
      continue; // unhinted: nothing to place
    }
    roofline_stats r;
    r.name = key.name != nullptr ? *key.name : std::string("?");
    r.target = backend;
    r.count = value.count;
    r.time_us = static_cast<double>(value.total_ns) * 1e-3;
    r.flops = value.flops;
    r.bytes = value.bytes;
    r.peak = host_roof();
    place_on_roof(r);
    out.push_back(std::move(r));
  }

  // Simulated rows: modeled DRAM/flop tallies at simulated time, folded per
  // (model, kernel).  A stream label "a100.q1" / "a100.rank0" belongs to
  // model "a100"; labels that resolve to no known model are skipped.
  std::map<std::pair<std::string, std::string>, roofline_stats> sims;
  for (const auto& ev : internal::sim_snapshot()) {
    if (ev.category != "kernel") {
      continue; // transfers/allocs move bytes but are not roofline subjects
    }
    if (ev.dur_us <= 0.0 || (ev.flops == 0 && ev.dram_bytes == 0)) {
      continue; // stall/wait bookkeeping, not kernel work
    }
    const std::string model = ev.device.substr(0, ev.device.find('.'));
    const auto peak = model_roof(model);
    if (!peak) {
      continue;
    }
    roofline_stats& r = sims[{model, ev.name}];
    if (r.count == 0) {
      r.name = ev.name;
      r.target = model;
      r.simulated = true;
      r.peak = *peak;
    }
    ++r.count;
    r.time_us += ev.dur_us;
    r.flops += static_cast<double>(ev.flops);
    r.bytes += static_cast<double>(ev.dram_bytes);
  }
  for (auto& [_, r] : sims) {
    place_on_roof(r);
    out.push_back(std::move(r));
  }

  std::sort(out.begin(), out.end(),
            [](const roofline_stats& a, const roofline_stats& b) {
              if (a.target != b.target) {
                return a.target < b.target;
              }
              if (a.time_us != b.time_us) {
                return a.time_us > b.time_us;
              }
              return a.name < b.name;
            });
  return out;
}

namespace {

// Immortal, like the registry the sink feeds: finalize() reads the slot
// from the atexit path, after function-local statics are destroyed.
std::mutex& rate_sink_mutex() {
  static auto* m = new std::mutex;
  return *m;
}

rate_sink& rate_sink_slot() {
  static auto* sink = new rate_sink;
  return *sink;
}

} // namespace

void register_rate_sink(rate_sink sink) {
  const std::lock_guard<std::mutex> lock(rate_sink_mutex());
  rate_sink_slot() = std::move(sink);
}

void note_rate(std::string_view target, std::string_view kernel, double gbps,
               double gflops) {
  rate_sink sink;
  {
    const std::lock_guard<std::mutex> lock(rate_sink_mutex());
    sink = rate_sink_slot();
  }
  if (sink) {
    sink(target, kernel, gbps, gflops);
  }
}

void publish_roofline_feedback() {
  rate_sink sink;
  {
    const std::lock_guard<std::mutex> lock(rate_sink_mutex());
    sink = rate_sink_slot();
  }
  if (!sink) {
    return;
  }
  for (const roofline_stats& r : aggregate_roofline()) {
    if (r.achieved_gbps > 0.0 || r.achieved_gflops > 0.0) {
      sink(r.target, r.name, r.achieved_gbps, r.achieved_gflops);
    }
  }
}

std::string roofline_text() {
  std::ostringstream os;
  os << "== jaccx::prof roofline ==\n";
  const auto rows = aggregate_roofline();
  if (rows.empty()) {
    os << "(no hinted kernels recorded; sim rows need JACC_PROFILE=roofline "
          "at kernel time)\n";
    return os.str();
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "%-10s %-28s %9s %9s %9s %10s %10s %-7s %7s\n", "target",
                "kernel", "AI f/B", "peak GB/s", "peak GF/s", "ach GB/s",
                "ach GF/s", "bound", "%roof");
  os << line;
  for (const roofline_stats& r : rows) {
    std::snprintf(line, sizeof line,
                  "%-10s %-28s %9.3f %9.0f %9.0f %10.2f %10.2f %-7s %6.1f%%\n",
                  r.target.c_str(), r.name.c_str(), r.intensity, r.peak.gbps,
                  r.peak.gflops, r.achieved_gbps, r.achieved_gflops,
                  r.memory_bound ? "memory" : "compute", r.pct_of_roof);
    os << line;
  }
  return os.str();
}

std::string summary_text() {
  std::ostringstream os;
  os << "== jaccx::prof summary ==\n";

  const auto kernels = aggregate_kernels();
  if (kernels.empty()) {
    os << "(no kernels recorded)\n";
  } else {
    char line[256];
    std::snprintf(line, sizeof line, "%-28s %-16s %-12s %8s %12s %10s %10s %10s %8s %8s\n",
                  "kernel", "construct", "backend", "count", "total_us",
                  "min_us", "mean_us", "max_us", "GB/s", "GF/s");
    os << line;
    for (const kernel_stats& k : kernels) {
      const double mean =
          k.count != 0 ? k.total_us / static_cast<double>(k.count) : 0.0;
      std::snprintf(line, sizeof line,
                    "%-28s %-16s %-12s %8" PRIu64
                    " %12.1f %10.2f %10.2f %10.2f %8.2f %8.2f\n",
                    k.name.c_str(), to_string(k.kind),
                    k.backend.empty() ? "-" : k.backend.c_str(), k.count,
                    k.total_us, k.min_us, mean, k.max_us, k.gbytes_per_s,
                    k.gflops_per_s);
      os << line;
    }
  }

  const memory_stats m = aggregate_memory();
  if (m.allocs + m.frees + m.h2d_copies + m.d2h_copies != 0) {
    os << "-- memory --\n";
    char line[192];
    std::snprintf(line, sizeof line,
                  "alloc %" PRIu64 "x / %.1f MiB   free %" PRIu64
                  "x / %.1f MiB   h2d %" PRIu64 "x / %.1f MiB   d2h %" PRIu64
                  "x / %.1f MiB\n",
                  m.allocs, static_cast<double>(m.alloc_bytes) / (1 << 20),
                  m.frees, static_cast<double>(m.free_bytes) / (1 << 20),
                  m.h2d_copies, static_cast<double>(m.h2d_bytes) / (1 << 20),
                  m.d2h_copies, static_cast<double>(m.d2h_bytes) / (1 << 20));
    os << line;
  }

  const auto mem_pools = aggregate_mem_pools();
  if (!mem_pools.empty()) {
    os << "-- memory pool (mode " << mem_pools.front().mode << ") --\n";
    char line[224];
    for (const mem_pool_stats& p : mem_pools) {
      const std::uint64_t lookups = p.hits + p.misses;
      const double rate =
          lookups != 0 ? 100.0 * static_cast<double>(p.hits) /
                             static_cast<double>(lookups)
                       : 0.0;
      std::snprintf(line, sizeof line,
                    "%-10s hits %8" PRIu64 "  stalls %4" PRIu64 "  misses %6"
                    PRIu64
                    "  hit-rate %5.1f%%  cached %8.1f KiB  live %8.1f KiB  "
                    "workspace %8.1f KiB  high-water %8.1f KiB\n",
                    p.label.c_str(), p.hits, p.stalls, p.misses, rate,
                    static_cast<double>(p.bytes_cached) / 1024.0,
                    static_cast<double>(p.bytes_live) / 1024.0,
                    static_cast<double>(p.workspace_bytes) / 1024.0,
                    static_cast<double>(p.high_water_bytes) / 1024.0);
      os << line;
    }
  }

  const auto queues = aggregate_queues();
  if (!queues.empty()) {
    os << "-- queues --\n";
    char line[224];
    for (const queue_stats& q : queues) {
      std::snprintf(line, sizeof line,
                    "%-8s launches %6" PRIu64 "  copies %6" PRIu64
                    "  async %6" PRIu64 "  waits %4" PRIu64 "  syncs %4" PRIu64
                    "  lane %2d  sim %10.1f us\n",
                    q.label.c_str(), q.launches, q.copies, q.async_tasks,
                    q.waits, q.syncs, q.lane, q.sim_us);
      os << line;
    }
  }

  const serve_stats serving = aggregate_serve();
  if (!serving.tenants.empty()) {
    os << "-- serve --\n";
    char line[256];
    for (const serve_tenant_stats& t : serving.tenants) {
      std::snprintf(line, sizeof line,
                    "%-12s w %4.1f prio %d  sub %6" PRIu64 "  adm %6" PRIu64
                    "  def %5" PRIu64 " (adm %5" PRIu64 ")  rej %4" PRIu64
                    "  done %6" PRIu64 "  wait p50 %9.1f us  p99 %9.1f us\n",
                    t.name.c_str(), t.weight, t.priority, t.submitted,
                    t.admitted, t.deferred, t.deferred_admitted, t.rejected,
                    t.completed, t.wait_p50_us, t.wait_p99_us);
      os << line;
    }
    for (const serve_slot_stats& sl : serving.slots) {
      const double util = serving.uptime_us > 0.0
                              ? 100.0 * sl.busy_us / serving.uptime_us
                              : 0.0;
      std::snprintf(line, sizeof line,
                    "  slot %-3d jobs %6" PRIu64 "  busy %10.1f us  (%5.1f%% "
                    "of uptime)\n",
                    sl.slot, sl.jobs, sl.busy_us, util);
      os << line;
    }
  }

  for (const pool_stats& p : aggregate_pools()) {
    os << "-- pool " << p.label << " (width " << p.width << ", schedule "
       << p.schedule << ", " << p.regions << " regions) --\n";
    char line[192];
    for (const pool_worker_stat& w : p.workers) {
      std::snprintf(line, sizeof line,
                    "worker %-3u busy %10.1f us  spin %10.1f us  park %10.1f "
                    "us  parks %6" PRIu64 "  chunks %8" PRIu64 "\n",
                    w.worker, static_cast<double>(w.busy_ns) * 1e-3,
                    static_cast<double>(w.spin_ns) * 1e-3,
                    static_cast<double>(w.park_ns) * 1e-3, w.parks, w.chunks);
      os << line;
    }
  }

  const async_stats a = aggregate_async();
  if (a.queue_submits + a.queue_tasks + a.graph_replays + a.future_waits != 0 ||
      !a.comms.empty()) {
    os << "-- async --\n";
    char line[224];
    std::snprintf(line, sizeof line,
                  "queue submits %8" PRIu64 "  tasks %8" PRIu64
                  "  busy %10.1f us\n",
                  a.queue_submits, a.queue_tasks, a.queue_task_us);
    os << line;
    for (const lane_util& l : a.lanes) {
      const double share =
          a.queue_task_us > 0.0 ? 100.0 * l.busy_us / a.queue_task_us : 0.0;
      std::snprintf(line, sizeof line,
                    "  %-22s tasks %8" PRIu64
                    "  busy %10.1f us  (%5.1f%% of queue busy)\n",
                    l.label.c_str(), l.tasks, l.busy_us, share);
      os << line;
    }
    if (a.graph_replays != 0) {
      std::snprintf(line, sizeof line,
                    "graph replays %8" PRIu64 "  nodes %8" PRIu64
                    "  kernels %8" PRIu64 "  span %10.1f us\n",
                    a.graph_replays, a.graph_nodes, a.graph_kernels,
                    a.graph_replay_us);
      os << line;
    }
    if (a.future_waits != 0) {
      std::snprintf(line, sizeof line,
                    "future waits  %8" PRIu64
                    "  blocked %10.1f us  mean %8.2f us\n",
                    a.future_waits, a.future_wait_us,
                    a.future_wait_us / static_cast<double>(a.future_waits));
      os << line;
      const auto hist = future_wait_histogram();
      os << "wait histogram:";
      for (std::size_t b = 0; b < hist.size(); ++b) {
        if (hist[b] == 0) {
          continue;
        }
        if (b == 0) {
          os << " <1us:" << hist[b];
        } else {
          os << " <" << (std::uint64_t{1} << b) << "us:" << hist[b];
        }
      }
      os << "\n";
    }
    for (const comm_stat& c : a.comms) {
      std::snprintf(line, sizeof line, "comm %-20s %8" PRIu64 "x  %12.1f KiB\n",
                    c.name.c_str(), c.count,
                    static_cast<double>(c.bytes) / 1024.0);
      os << line;
    }
  }
  return os.str();
}

std::string chrome_trace_json() {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  append_meta(os, first, host_pid, 0, "process_name", "jacc host (wall clock)");

  const auto rings = internal::ring_snapshot();
  for (const event_ring* ring : rings) {
    append_meta(os, first, host_pid, static_cast<int>(ring->tid()),
                "thread_name", ring->label());
  }

  for (const event_ring* ring : rings) {
    const int tid = static_cast<int>(ring->tid());
    const std::uint64_t count = ring->count();
    const std::uint64_t resident = ring->resident();
    for (std::uint64_t i = count - resident; i < count; ++i) {
      const record& r = ring->at(i);
      if (!first) {
        os << ",\n";
      }
      first = false;
      const double ts = static_cast<double>(r.t0_ns) * 1e-3;
      const double dur = static_cast<double>(r.t1_ns - r.t0_ns) * 1e-3;
      const char* name = r.name != nullptr ? r.name->c_str() : "?";
      if (r.t1_ns == r.t0_ns) {
        os << "  {\"ph\":\"i\",\"s\":\"t\",\"pid\":" << host_pid
           << ",\"tid\":" << tid << ",\"ts\":" << ts << ",\"name\":\""
           << json_escape(name) << "\",\"cat\":\"" << to_string(r.kind)
           << "\",\"args\":{";
        if (r.kind == construct::queue_submit) {
          os << "\"queue\":" << r.units << ",\"flow\":" << r.aux;
        } else {
          os << "\"bytes\":" << r.units;
        }
        os << "}}";
        if (r.kind == construct::queue_submit && r.aux != 0) {
          // Flow start: pairs with the "f" event on the executing lane task,
          // drawing the submission→execution arrow in the trace viewer.
          os << ",\n  {\"ph\":\"s\",\"id\":" << r.aux
             << ",\"pid\":" << host_pid << ",\"tid\":" << tid
             << ",\"ts\":" << ts
             << ",\"name\":\"queue.flow\",\"cat\":\"queue\"}";
        }
        continue;
      }
      os << "  {\"ph\":\"X\",\"pid\":" << host_pid << ",\"tid\":" << tid
         << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"name\":\""
         << json_escape(name) << "\",\"cat\":\"" << to_string(r.kind)
         << "\",\"args\":{";
      if (r.kind == construct::pool_busy || r.kind == construct::pool_park) {
        os << "\"worker\":" << r.worker << ",\"chunks\":" << r.units;
      } else if (r.kind == construct::queue_task) {
        os << "\"lane\":" << r.worker << ",\"queue\":" << r.units
           << ",\"flow\":" << r.aux;
      } else if (r.kind == construct::graph_replay) {
        os << "\"nodes\":" << r.units << ",\"kernels\":" << r.aux;
      } else if (r.kind == construct::future_wait) {
        os << "\"wait_us\":" << dur;
      } else {
        os << "\"indices\":" << r.units
           << ",\"flops_per_index\":" << r.flops_per_index
           << ",\"bytes_per_index\":" << r.bytes_per_index;
        if (!r.backend.empty()) {
          os << ",\"backend\":\"" << json_escape(r.backend) << "\"";
        }
      }
      os << "}}";
      if (r.kind == construct::queue_task && r.aux != 0) {
        // Flow finish bound to this span's start (bp:"e").
        os << ",\n  {\"ph\":\"f\",\"bp\":\"e\",\"id\":" << r.aux
           << ",\"pid\":" << host_pid << ",\"tid\":" << tid
           << ",\"ts\":" << ts
           << ",\"name\":\"queue.flow\",\"cat\":\"queue\"}";
      }
    }
  }

  // Simulated devices: one pid per device label, events at their simulated
  // timestamps (already microseconds, the trace's native unit).
  const auto sims = internal::sim_snapshot();
  std::vector<std::string> device_order;
  for (const auto& ev : sims) {
    if (std::find(device_order.begin(), device_order.end(), ev.device) ==
        device_order.end()) {
      device_order.push_back(ev.device);
    }
  }
  for (std::size_t d = 0; d < device_order.size(); ++d) {
    append_meta(os, first, host_pid + 1 + static_cast<int>(d), 0,
                "process_name", "sim:" + device_order[d]);
  }
  for (const auto& ev : sims) {
    const auto it =
        std::find(device_order.begin(), device_order.end(), ev.device);
    const int pid =
        host_pid + 1 +
        static_cast<int>(std::distance(device_order.begin(), it));
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << "  {\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":0,\"ts\":" << ev.ts_us
       << ",\"dur\":" << ev.dur_us << ",\"name\":\"" << json_escape(ev.name)
       << "\",\"cat\":\"sim." << json_escape(ev.category)
       << "\",\"args\":{\"dram_bytes\":" << ev.dram_bytes
       << ",\"cache_bytes\":" << ev.cache_bytes << ",\"flops\":" << ev.flops
       << ",\"indices\":" << ev.indices << "}}";
  }

  os << "\n]}\n";
  return os.str();
}

std::string expand_trace_path(std::string_view path) {
#ifdef _WIN32
  const long pid = static_cast<long>(_getpid());
#else
  const long pid = static_cast<long>(getpid());
#endif
  std::string out;
  out.reserve(path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == '%' && i + 1 < path.size() && path[i + 1] == 'p') {
      out += std::to_string(pid);
      ++i;
    } else {
      out += path[i];
    }
  }
  return out;
}

void finalize() {
  // Feed measured placement (auto_backend) before any report is printed;
  // a no-op without a registered sink or collected data.
  publish_roofline_feedback();
  const unsigned m = mode();
  if ((m & (mode_summary | mode_trace | mode_roofline)) == 0) {
    return;
  }
  if (!internal::report_signature_changed(current_signature())) {
    return;
  }
  if ((m & mode_summary) != 0) {
    const std::string text = summary_text();
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
  }
  if ((m & mode_roofline) != 0) {
    const std::string text = roofline_text();
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
  }
  if ((m & mode_trace) != 0) {
    std::string path = trace_path();
    if (path.empty()) {
      path = "jacc_trace.json";
    }
    path = expand_trace_path(path);
    std::ofstream out(path, std::ios::trunc);
    if (out) {
      out << chrome_trace_json();
    } else {
      std::fprintf(stderr, "jaccx::prof: cannot write trace file '%s'\n",
                   path.c_str());
    }
  }
}

} // namespace jaccx::prof
