#include "blas/jacc_blas.hpp"

#include <cmath>

#include "core/jacc.hpp"

namespace jaccx::blas {

void jacc_axpy(index_t n, double alpha, darray& x, const darray& y) {
  jacc::parallel_for(jacc::hints{.name = "jacc.axpy",
                                 .flops_per_index = 2.0,
                                 .bytes_per_index = 24.0},
                     n, axpy, alpha, x, y);
}

double jacc_dot(index_t n, const darray& x, const darray& y) {
  return jacc::parallel_reduce(
      jacc::hints{.name = "jacc.dot", .flops_per_index = 2.0,
                  .bytes_per_index = 16.0},
      n, dot, x, y);
}

void jacc_axpy2d(index_t rows, index_t cols, double alpha, darray2d& x,
                 const darray2d& y) {
  jacc::parallel_for(
      jacc::hints{.name = "jacc.axpy2d", .flops_per_index = 2.0,
                  .bytes_per_index = 24.0},
      jacc::dims2{rows, cols}, axpy2d, alpha, x, y);
}

double jacc_dot2d(index_t rows, index_t cols, const darray2d& x,
                  const darray2d& y) {
  return jacc::parallel_reduce(
      jacc::hints{.name = "jacc.dot2d", .flops_per_index = 2.0,
                  .bytes_per_index = 16.0},
      jacc::dims2{rows, cols}, dot2d, x, y);
}

void jacc_scal(index_t n, double alpha, darray& x) {
  jacc::parallel_for(jacc::hints{.name = "jacc.scal",
                                 .flops_per_index = 1.0,
                                 .bytes_per_index = 16.0},
                     n, scal, alpha, x);
}

void jacc_copy(index_t n, const darray& x, darray& y) {
  jacc::parallel_for(jacc::hints{.name = "jacc.copy", .bytes_per_index = 16.0},
                     n, copy, x, y);
}

void jacc_swap(index_t n, darray& x, darray& y) {
  jacc::parallel_for(jacc::hints{.name = "jacc.swap", .bytes_per_index = 32.0},
                     n, swap, x, y);
}

double jacc_asum(index_t n, const darray& x) {
  return jacc::parallel_reduce(
      jacc::hints{.name = "jacc.asum", .flops_per_index = 1.0,
                  .bytes_per_index = 8.0},
      n, abs_term,
      x);
}

double jacc_nrm2(index_t n, const darray& x) {
  return std::sqrt(jacc::parallel_reduce(
      jacc::hints{.name = "jacc.nrm2", .flops_per_index = 2.0,
                  .bytes_per_index = 8.0},
      n,
      square_term, x));
}

double jacc_amax(index_t n, const darray& x) {
  return jacc::parallel_reduce_max(n, abs_term, x);
}

void jacc_gemv(index_t rows, index_t cols, double alpha, const darray2d& a,
               const darray& x, double beta, darray& y) {
  jacc::parallel_for(
      jacc::hints{.name = "jacc.gemv",
                  .flops_per_index = 2.0 * static_cast<double>(cols) + 2.0,
                  .bytes_per_index = 16.0 * static_cast<double>(cols) + 24.0},
      rows, gemv_row, alpha, a, x, beta, y, cols);
}

} // namespace jaccx::blas
