#include "serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "mem/pool.hpp"
#include "support/error.hpp"

namespace jaccx::serve {
namespace detail {
namespace {

using sched_clock = std::chrono::steady_clock;

double us_between(sched_clock::time_point a, sched_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile over a scratch copy.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  idx = std::min(v.size(), std::max<std::size_t>(idx, 1)) - 1;
  return v[idx];
}

} // namespace

struct job_state {
  std::shared_ptr<tenant_state> owner;
  std::function<void(jacc::queue&)> work;
  std::uint64_t bytes_hint = 0;
  sched_clock::time_point submit_tp;

  // Terminal-state signalling for job_handle: its own leaf mutex, so
  // waiters never touch the scheduler lock.
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  job_status status = job_status::queued;
  bool deferred_once = false;
  double wait_us = 0.0;
  std::string error;

  void set_status(job_status st) {
    const std::lock_guard lock(mu);
    status = st;
  }
  void finish(job_status st, std::string err) {
    {
      const std::lock_guard lock(mu);
      status = st;
      error = std::move(err);
    }
    cv.notify_all();
  }
};

struct tenant_state {
  std::string name;
  double weight = 1.0;
  priority prio = priority::normal;
  std::size_t index = 0;

  // Everything below is guarded by scheduler_state::mu.
  double vtime = 0.0;
  std::deque<std::shared_ptr<job_state>> ready;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;
  std::uint64_t deferred_admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double busy_us = 0.0;
  std::vector<double> wait_samples;
};

struct slot_stat {
  std::uint64_t jobs = 0;
  double busy_us = 0.0;
};

struct scheduler_state {
  options opt;
  int slots = 1;
  int workers = 1;
  bool sim = false;
  sched_clock::time_point start_tp;

  std::mutex mu;
  std::condition_variable cv;       ///< workers: dispatchable work arrived
  std::condition_variable drain_cv; ///< drain(): outstanding hit zero
  bool stop = false;
  std::size_t outstanding = 0; ///< submitted jobs not yet terminal
  std::size_t pending = 0;     ///< ready + deferred (max_pending gate)
  std::size_t running = 0;
  std::uint64_t inflight_hints = 0; ///< Σ bytes_hint, admission -> terminal
  double vclock = 0.0;              ///< global virtual clock (WFQ)
  std::vector<std::shared_ptr<tenant_state>> tenants;
  std::deque<std::shared_ptr<job_state>> deferred;
  std::vector<slot_stat> slot_stats;
  std::vector<std::thread> threads;
  std::uint64_t pressure_token = 0;
};

namespace {

bool admissible_locked(scheduler_state& s, std::uint64_t hint) {
  if (s.opt.mem_budget_bytes == 0) {
    return true;
  }
  // Lock order: the scheduler mutex is always taken before the pool's
  // (the pool fires its pressure callbacks with no lock held).
  const std::uint64_t used =
      mem::live_bytes() + mem::cached_bytes() + s.inflight_hints;
  return used + hint <= s.opt.mem_budget_bytes;
}

/// Moves one admitted job onto its tenant's ready deque.  An idle tenant
/// re-activating is clamped up to the global virtual clock so banked idle
/// time cannot starve the others.
void enqueue_ready_locked(scheduler_state& s,
                          const std::shared_ptr<job_state>& j) {
  tenant_state& t = *j->owner;
  if (t.ready.empty()) {
    t.vtime = std::max(t.vtime, s.vclock);
  }
  t.ready.push_back(j);
  s.inflight_hints += j->bytes_hint;
  ++t.admitted;
}

/// Re-runs admission over the deferred FIFO head-first; stops at the first
/// job that still does not fit (order preserved so a large job cannot be
/// starved by small ones slipping past it).  Returns how many were
/// admitted.
std::size_t readmit_locked(scheduler_state& s) {
  std::size_t n = 0;
  while (!s.deferred.empty() &&
         admissible_locked(s, s.deferred.front()->bytes_hint)) {
    std::shared_ptr<job_state> j = s.deferred.front();
    s.deferred.pop_front();
    ++j->owner->deferred_admitted;
    j->set_status(job_status::queued);
    enqueue_ready_locked(s, j);
    ++n;
  }
  return n;
}

/// Last-resort progress guarantee: nothing ready, nothing running, jobs
/// deferred.  Trim the pool down to the budget and admit the head even if
/// the budget is still formally exceeded — the allocator's own
/// trim-and-retry is the backstop below this point.
void force_admit_locked(scheduler_state& s) {
  if (s.deferred.empty()) {
    return;
  }
  mem::trim(s.opt.mem_budget_bytes);
  if (readmit_locked(s) > 0) {
    return;
  }
  std::shared_ptr<job_state> j = s.deferred.front();
  s.deferred.pop_front();
  ++j->owner->deferred_admitted;
  j->set_status(job_status::queued);
  enqueue_ready_locked(s, j);
}

bool any_ready_locked(const scheduler_state& s) {
  for (const auto& t : s.tenants) {
    if (!t->ready.empty()) {
      return true;
    }
  }
  return false;
}

bool dispatchable_locked(const scheduler_state& s) {
  return any_ready_locked(s) ||
         (s.running == 0 && !s.deferred.empty());
}

/// Strict priority, then smallest virtual time, then tenant order.
std::shared_ptr<job_state> pick_locked(scheduler_state& s) {
  tenant_state* best = nullptr;
  for (const auto& t : s.tenants) {
    if (t->ready.empty()) {
      continue;
    }
    if (best == nullptr || t->prio > best->prio ||
        (t->prio == best->prio && t->vtime < best->vtime)) {
      best = t.get();
    }
  }
  if (best == nullptr) {
    return nullptr;
  }
  std::shared_ptr<job_state> j = best->ready.front();
  best->ready.pop_front();
  --s.pending;
  s.vclock = std::max(s.vclock, best->vtime);
  return j;
}

void worker_loop(scheduler_state& s, int worker_index) {
  // Each worker owns its slot queue; the single simulated-backend runner
  // owns ALL slot queues and binds each job to its tenant's slot, so
  // independent tenants charge to distinct sim streams.
  std::vector<jacc::queue> queues;
  if (s.sim) {
    queues.reserve(static_cast<std::size_t>(s.slots));
    for (int k = 0; k < s.slots; ++k) {
      queues.emplace_back("serve.s" + std::to_string(k));
    }
  } else {
    queues.emplace_back("serve.s" + std::to_string(worker_index));
  }

  for (;;) {
    std::shared_ptr<job_state> j;
    int slot = worker_index;
    {
      std::unique_lock lock(s.mu);
      s.cv.wait(lock, [&] { return s.stop || dispatchable_locked(s); });
      if (!any_ready_locked(s)) {
        if (s.running == 0 && !s.deferred.empty()) {
          force_admit_locked(s);
        }
        if (!any_ready_locked(s)) {
          if (s.stop) {
            return;
          }
          continue;
        }
      }
      j = pick_locked(s);
      ++s.running;
      if (s.sim) {
        slot = static_cast<int>(j->owner->index %
                                static_cast<std::size_t>(s.slots));
      }
      const double waited = us_between(j->submit_tp, sched_clock::now());
      j->owner->wait_samples.push_back(waited);
      {
        const std::lock_guard jlock(j->mu);
        j->status = job_status::running;
        j->wait_us = waited;
      }
    }

    jacc::queue& q = queues[s.sim ? static_cast<std::size_t>(slot) : 0];
    const auto t0 = sched_clock::now();
    std::string error;
    bool failed = false;
    try {
      j->work(q);
      q.synchronize();
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    } catch (...) {
      failed = true;
      error = "unknown exception";
    }
    const double elapsed = us_between(t0, sched_clock::now());

    // Publish the terminal status before touching the drain accounting:
    // once `outstanding` hits zero a drain()er may return and read
    // handle statuses, so the flip must already be visible.
    j->finish(failed ? job_status::failed : job_status::done,
              std::move(error));

    {
      const std::lock_guard lock(s.mu);
      tenant_state& t = *j->owner;
      t.vtime += elapsed / std::max(t.weight, 1e-9);
      s.vclock = std::max(s.vclock, t.vtime);
      t.busy_us += elapsed;
      if (failed) {
        ++t.failed;
      } else {
        ++t.completed;
      }
      slot_stat& ss = s.slot_stats[static_cast<std::size_t>(slot)];
      ++ss.jobs;
      ss.busy_us += elapsed;
      JACCX_ASSERT(s.running > 0 && s.outstanding > 0);
      --s.running;
      --s.outstanding;
      JACCX_ASSERT(s.inflight_hints >= j->bytes_hint);
      s.inflight_hints -= j->bytes_hint;
      readmit_locked(s);
    }
    s.cv.notify_all();
    s.drain_cv.notify_all();
  }
}

prof::serve_stats snapshot(scheduler_state& s) {
  prof::serve_stats out;
  const std::lock_guard lock(s.mu);
  out.uptime_us = us_between(s.start_tp, sched_clock::now());
  out.tenants.reserve(s.tenants.size());
  for (const auto& t : s.tenants) {
    prof::serve_tenant_stats row;
    row.name = t->name;
    row.weight = t->weight;
    row.priority = static_cast<int>(t->prio);
    row.submitted = t->submitted;
    row.admitted = t->admitted;
    row.deferred = t->deferred;
    row.deferred_admitted = t->deferred_admitted;
    row.rejected = t->rejected;
    row.completed = t->completed;
    row.failed = t->failed;
    row.busy_us = t->busy_us;
    row.wait_p50_us = percentile(t->wait_samples, 50.0);
    row.wait_p99_us = percentile(t->wait_samples, 99.0);
    out.tenants.push_back(std::move(row));
  }
  out.slots.reserve(s.slot_stats.size());
  for (std::size_t k = 0; k < s.slot_stats.size(); ++k) {
    prof::serve_slot_stats row;
    row.slot = static_cast<int>(k);
    row.jobs = s.slot_stats[k].jobs;
    row.busy_us = s.slot_stats[k].busy_us;
    out.slots.push_back(row);
  }
  return out;
}

} // namespace
} // namespace detail

// --- job_handle -------------------------------------------------------------

job_status job_handle::status() const {
  JACCX_ASSERT(s_ != nullptr);
  const std::lock_guard lock(s_->mu);
  return s_->status;
}

void job_handle::wait() const {
  JACCX_ASSERT(s_ != nullptr);
  std::unique_lock lock(s_->mu);
  s_->cv.wait(lock, [&] {
    return s_->status == job_status::done ||
           s_->status == job_status::failed ||
           s_->status == job_status::rejected;
  });
}

bool job_handle::terminal() const {
  const job_status st = status();
  return st == job_status::done || st == job_status::failed ||
         st == job_status::rejected;
}

double job_handle::queue_wait_us() const {
  JACCX_ASSERT(s_ != nullptr);
  const std::lock_guard lock(s_->mu);
  return s_->wait_us;
}

bool job_handle::was_deferred() const {
  JACCX_ASSERT(s_ != nullptr);
  const std::lock_guard lock(s_->mu);
  return s_->deferred_once;
}

std::string job_handle::error() const {
  JACCX_ASSERT(s_ != nullptr);
  const std::lock_guard lock(s_->mu);
  return s_->error;
}

// --- tenant -----------------------------------------------------------------

const std::string& tenant::name() const {
  JACCX_ASSERT(s_ != nullptr);
  return s_->name;
}

double tenant::weight() const {
  JACCX_ASSERT(s_ != nullptr);
  return s_->weight;
}

priority tenant::prio() const {
  JACCX_ASSERT(s_ != nullptr);
  return s_->prio;
}

// --- scheduler --------------------------------------------------------------

scheduler::scheduler(options opt) : s_(std::make_shared<detail::scheduler_state>()) {
  detail::scheduler_state& s = *s_;
  s.opt = opt;

  const jacc::backend b = jacc::current_backend();
  s.sim = jacc::backend_device(b) != nullptr;
  int lanes = 1;
  if (b == jacc::backend::threads) {
    lanes = std::max(1, jacc::queue_lane_count());
  }
  const int slots =
      opt.slots > 0 ? opt.slots : (b == jacc::backend::threads ? lanes : 4);
  s.slots = std::clamp(slots, 1, 64);
  if (s.sim) {
    // Simulated devices execute functionally at enqueue and are not
    // thread-safe: one runner, per-tenant slot streams (see serve.hpp).
    s.workers = 1;
  } else if (b == jacc::backend::threads) {
    // Real concurrency only exists across dispatcher lanes; with one lane
    // queued work degrades to synchronous calls on the shared default
    // pool, which admits one runner at a time.
    s.workers = std::max(1, std::min(s.slots, lanes));
  } else {
    s.workers = s.slots;
  }
  s.slot_stats.resize(static_cast<std::size_t>(s.slots));
  s.start_tp = detail::sched_clock::now();

  std::weak_ptr<detail::scheduler_state> w = s_;
  s.pressure_token = mem::add_pressure_callback([w] {
    if (const auto p = w.lock()) {
      std::size_t admitted = 0;
      {
        const std::lock_guard lock(p->mu);
        admitted = detail::readmit_locked(*p);
      }
      if (admitted > 0) {
        p->cv.notify_all();
      }
    }
  });
  prof::register_serve_source([w]() -> prof::serve_stats {
    if (const auto p = w.lock()) {
      return detail::snapshot(*p);
    }
    return {};
  });

  s.threads.reserve(static_cast<std::size_t>(s.workers));
  for (int k = 0; k < s.workers; ++k) {
    s.threads.emplace_back([state = s_.get(), k] {
      detail::worker_loop(*state, k);
    });
  }
}

scheduler::~scheduler() {
  drain();
  mem::remove_pressure_callback(s_->pressure_token);
  prof::register_serve_source({});
  {
    const std::lock_guard lock(s_->mu);
    s_->stop = true;
  }
  s_->cv.notify_all();
  for (std::thread& t : s_->threads) {
    t.join();
  }
}

tenant scheduler::open_tenant(std::string name, double weight, priority p) {
  if (!(weight > 0.0)) {
    jaccx::throw_usage_error("serve: tenant weight must be > 0");
  }
  auto t = std::make_shared<detail::tenant_state>();
  t->name = std::move(name);
  t->weight = weight;
  t->prio = p;
  const std::lock_guard lock(s_->mu);
  t->index = s_->tenants.size();
  t->vtime = s_->vclock;
  s_->tenants.push_back(t);
  tenant out;
  out.s_ = std::move(t);
  return out;
}

job_handle scheduler::submit(const tenant& t,
                             std::function<void(jacc::queue&)> work,
                             std::uint64_t bytes_hint) {
  JACCX_ASSERT(t.s_ != nullptr);
  auto j = std::make_shared<detail::job_state>();
  j->owner = t.s_;
  j->work = std::move(work);
  j->bytes_hint = bytes_hint;
  j->submit_tp = detail::sched_clock::now();

  job_handle h;
  h.s_ = j;
  bool notify = false;
  {
    const std::lock_guard lock(s_->mu);
    detail::tenant_state& ts = *t.s_;
    ++ts.submitted;
    if (s_->stop ||
        (s_->opt.max_pending != 0 && s_->pending >= s_->opt.max_pending)) {
      ++ts.rejected;
      j->status = job_status::rejected;
      return h;
    }
    ++s_->outstanding;
    ++s_->pending;
    if (detail::admissible_locked(*s_, bytes_hint)) {
      detail::enqueue_ready_locked(*s_, j);
      notify = true;
    } else {
      j->status = job_status::deferred;
      j->deferred_once = true;
      ++ts.deferred;
      s_->deferred.push_back(j);
      // A worker may still need to wake: if nothing is running it must
      // apply the force-admission progress guarantee.
      notify = s_->running == 0;
    }
  }
  if (notify) {
    s_->cv.notify_all();
  }
  return h;
}

job_handle scheduler::submit(const tenant& t, jacc::graph g,
                             std::uint64_t bytes_hint) {
  return submit(
      t,
      [g = std::move(g)](jacc::queue& q) mutable { g.launch(q).wait(); },
      bytes_hint);
}

void scheduler::drain() {
  std::unique_lock lock(s_->mu);
  s_->drain_cv.wait(lock, [&] { return s_->outstanding == 0; });
}

prof::serve_stats scheduler::stats() const { return detail::snapshot(*s_); }

int scheduler::slots() const { return s_->slots; }

int scheduler::workers() const { return s_->workers; }

} // namespace jaccx::serve
