// Regression test for the profiler's exit path.  With roofline collection
// on, jacc::finalize() publishes achieved rates into auto_backend's
// registry, and prof's atexit finalize publishes them again after
// function-local statics have started to be destroyed — the shape of every
// bench binary (bench_session finalizes, then main returns).  One target
// per back end gives the registry six entries, enough that writing into a
// destroyed registry crashes.  The process must exit 0 (ctest
// ProfExit.RooflineFeedbackAtExit), and without a report under
// -DJACCX_SANITIZE=address.
#include "cg/solver.hpp"
#include "core/jacc.hpp"

int main() {
  jaccx::prof::set_mode(jaccx::prof::mode_collect |
                        jaccx::prof::mode_roofline);
  for (const jacc::backend be :
       {jacc::backend::serial, jacc::backend::threads, jacc::backend::cpu_rome,
        jacc::backend::cuda_a100, jacc::backend::hip_mi100,
        jacc::backend::oneapi_max1550}) {
    const jacc::scoped_backend sb(be);
    jaccx::cg::paper_state st(4096);
    jaccx::cg::paper_iteration(st);
  }
  jacc::finalize();
  return 0;
}
