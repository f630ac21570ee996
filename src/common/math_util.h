#pragma once

/// \file math_util.h
/// \brief Numeric building blocks: summary statistics, correlation,
/// autocorrelation, FFT, simple linear algebra (least squares), and moving
/// averages. These back the characteristics extractor, the statistical
/// forecasters, and the metrics layer.

#include <complex>
#include <cstddef>
#include <vector>

#include "common/result.h"

namespace easytime {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& v);

/// Population variance (divides by n); 0 for n < 1.
double Variance(const std::vector<double>& v);

/// Population standard deviation.
double StdDev(const std::vector<double>& v);

/// Median (copies and partially sorts).
double Median(std::vector<double> v);

/// q-th quantile via linear interpolation, q in [0,1].
double Quantile(std::vector<double> v, double q);

/// \brief Inverse CDF of the standard normal distribution (Acklam's
/// rational approximation, |error| < 1.2e-9). p must lie in (0,1); the
/// endpoints return -/+infinity. Backs prediction-interval z-scores:
/// z = NormalQuantile((1 + confidence) / 2).
double NormalQuantile(double p);

/// Pearson correlation of two equal-length vectors; 0 when degenerate.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Sample autocorrelation at \p lag (biased estimator, as in standard ACF).
double Autocorrelation(const std::vector<double>& v, size_t lag);

/// ACF for lags 0..max_lag inclusive.
std::vector<double> AcfUpTo(const std::vector<double>& v, size_t max_lag);

/// Centered moving average with window \p w (edges use shrinking windows);
/// the classic trend estimator used by decomposition.
std::vector<double> MovingAverage(const std::vector<double>& v, size_t w);

/// First difference: out[i] = v[i+1] - v[i].
std::vector<double> Difference(const std::vector<double>& v, size_t order = 1);

/// In-place iterative radix-2 FFT. Size must be a power of two.
Status Fft(std::vector<std::complex<double>>* data, bool inverse = false);

/// Power spectral density of \p v via FFT on the next power-of-two padding
/// (mean removed). Returns |X_k|^2 for k = 0..n/2.
std::vector<double> PowerSpectrum(const std::vector<double>& v);

/// \brief Solves the linear system A x = b for square A via Gaussian
/// elimination with partial pivoting. A is row-major n x n.
Result<std::vector<double>> SolveLinearSystem(std::vector<double> a,
                                              std::vector<double> b,
                                              size_t n);

/// X^T X of a row-major (rows x cols) X: the upper triangle accumulated
/// row by row, then mirrored.
std::vector<double> NormalMatrix(const std::vector<double>& x, size_t rows,
                                 size_t cols);

/// \brief Solves (xtx + l2 I) beta = xty. A singular system with l2 == 0 is
/// retried with a 1e-8 ridge.
Result<std::vector<double>> SolveNormalEquations(
    const std::vector<double>& xtx, const std::vector<double>& xty,
    size_t cols, double l2);

/// \brief Ordinary least squares: minimizes ||X beta - y||^2 with optional
/// L2 (ridge) regularization. X is row-major (rows x cols).
Result<std::vector<double>> LeastSquares(const std::vector<double>& x,
                                         const std::vector<double>& y,
                                         size_t rows, size_t cols,
                                         double l2 = 0.0);

/// Ordinary-least-squares fit of y = a + b * t against t = 0..n-1.
/// Returns {intercept, slope}.
std::pair<double, double> LinearTrendFit(const std::vector<double>& v);

/// Softmax with max-subtraction for stability.
std::vector<double> Softmax(const std::vector<double>& logits,
                            double temperature = 1.0);

/// Index of the maximum element (first on ties); 0 for empty.
size_t ArgMax(const std::vector<double>& v);

/// Index of the minimum element (first on ties); 0 for empty.
size_t ArgMin(const std::vector<double>& v);

/// Next power of two >= n (n >= 1).
size_t NextPowerOfTwo(size_t n);

/// Ranks of elements in ascending order (average rank on ties), 1-based —
/// used by Spearman correlation and recommendation quality metrics.
std::vector<double> Ranks(const std::vector<double>& v);

/// Spearman rank correlation.
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

}  // namespace easytime
