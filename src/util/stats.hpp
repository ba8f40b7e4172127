// Small statistics helpers used across benches and the calibration module.
#pragma once

#include <cstddef>
#include <vector>

namespace dpoaf {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a vector; 0 for an empty vector.
double mean_of(const std::vector<double>& xs);

/// Linear-interpolation quantile, q in [0, 1]. Requires non-empty input.
double quantile_of(std::vector<double> xs, double q);

/// Pearson correlation of two equal-length vectors; 0 if degenerate.
double pearson(const std::vector<double>& xs, const std::vector<double>& ys);

/// Spearman rank correlation (ties get average ranks).
double spearman(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace dpoaf
