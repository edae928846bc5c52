// Small statistics helpers shared by tests and the benchmark harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace unisamp {

/// Summary statistics of a sample of doubles.
struct Summary {
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased (n-1) variance
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

Summary summarize(std::span<const double> xs);

/// Pearson chi-square statistic of observed counts against expected
/// (uniform if `expected` empty).  Returns the statistic; degrees of
/// freedom are observed.size() - 1.
double chi_square_statistic(std::span<const std::uint64_t> observed,
                            std::span<const double> expected = {});

/// Upper critical value of the chi-square distribution with `dof` degrees of
/// freedom at significance alpha, via the Wilson–Hilferty normal
/// approximation.  Accurate to a few percent for dof >= 10, which is all the
/// tests need.
double chi_square_critical(std::size_t dof, double alpha);

}  // namespace unisamp
