#include "util/stats.hpp"

#include <cmath>
#include <span>

namespace unisamp {

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.min = xs[0];
  s.max = xs[0];
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
    if (x < s.min) s.min = x;
    if (x > s.max) s.max = x;
  }
  s.mean = sum / static_cast<double>(xs.size());
  if (xs.size() > 1) {
    double ss = 0.0;
    for (double x : xs) ss += (x - s.mean) * (x - s.mean);
    s.variance = ss / static_cast<double>(xs.size() - 1);
  }
  return s;
}

double chi_square_statistic(std::span<const std::uint64_t> observed,
                            std::span<const double> expected) {
  if (observed.empty()) return 0.0;
  double total = 0.0;
  for (auto o : observed) total += static_cast<double>(o);
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double e = expected.empty()
                         ? total / static_cast<double>(observed.size())
                         : expected[i] * total;
    if (e <= 0.0) continue;
    const double d = static_cast<double>(observed[i]) - e;
    stat += d * d / e;
  }
  return stat;
}

double chi_square_critical(std::size_t dof, double alpha) {
  // Wilson–Hilferty: chi2 ~ dof * (1 - 2/(9 dof) + z * sqrt(2/(9 dof)))^3.
  // z is the standard normal quantile of 1 - alpha (Acklam-lite rational
  // approximation, good to ~1e-4 which is plenty here).
  auto normal_quantile = [](double p) {
    // Beasley-Springer-Moro.
    static const double a[] = {2.50662823884, -18.61500062529, 41.39119773534,
                               -25.44106049637};
    static const double b[] = {-8.47351093090, 23.08336743743, -21.06224101826,
                               3.13082909833};
    static const double c[] = {0.3374754822726147, 0.9761690190917186,
                               0.1607979714918209, 0.0276438810333863,
                               0.0038405729373609, 0.0003951896511919,
                               0.0000321767881768, 0.0000002888167364,
                               0.0000003960315187};
    const double y = p - 0.5;
    if (std::fabs(y) < 0.42) {
      const double r = y * y;
      return y * (((a[3] * r + a[2]) * r + a[1]) * r + a[0]) /
             ((((b[3] * r + b[2]) * r + b[1]) * r + b[0]) * r + 1.0);
    }
    double r = p > 0.5 ? 1.0 - p : p;
    r = std::log(-std::log(r));
    double x = c[0];
    double rp = 1.0;
    for (int i = 1; i < 9; ++i) {
      rp *= r;
      x += c[i] * rp;
    }
    return p > 0.5 ? x : -x;
  };
  const double z = normal_quantile(1.0 - alpha);
  const double d = static_cast<double>(dof);
  const double t = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  return d * t * t * t;
}

}  // namespace unisamp
