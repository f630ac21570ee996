#include "common/math_util.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>

namespace easytime {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 1) return 0.0;
  double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = static_cast<size_t>(std::ceil(pos));
  double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double NormalQuantile(double p) {
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  // Acklam's rational approximation in three regions.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  if (p < p_low) {
    double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  double q = p - 0.5;
  double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) return 0.0;
  double ma = Mean(a), mb = Mean(b);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

double Autocorrelation(const std::vector<double>& v, size_t lag) {
  size_t n = v.size();
  if (lag >= n || n < 2) return 0.0;
  double m = Mean(v);
  double denom = 0.0;
  for (double x : v) denom += (x - m) * (x - m);
  if (denom <= 0.0) return 0.0;
  double num = 0.0;
  for (size_t i = 0; i + lag < n; ++i) num += (v[i] - m) * (v[i + lag] - m);
  return num / denom;
}

std::vector<double> AcfUpTo(const std::vector<double>& v, size_t max_lag) {
  std::vector<double> out;
  out.reserve(max_lag + 1);
  for (size_t lag = 0; lag <= max_lag; ++lag) {
    out.push_back(Autocorrelation(v, lag));
  }
  return out;
}

std::vector<double> MovingAverage(const std::vector<double>& v, size_t w) {
  size_t n = v.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  if (w < 1) w = 1;
  size_t half = w / 2;
  // Prefix sums for O(n).
  std::vector<double> prefix(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + v[i];
  for (size_t i = 0; i < n; ++i) {
    size_t lo = i >= half ? i - half : 0;
    size_t hi = std::min(n - 1, i + (w - 1 - half));
    out[i] = (prefix[hi + 1] - prefix[lo]) / static_cast<double>(hi - lo + 1);
  }
  return out;
}

std::vector<double> Difference(const std::vector<double>& v, size_t order) {
  std::vector<double> cur = v;
  for (size_t d = 0; d < order; ++d) {
    if (cur.size() < 2) return {};
    std::vector<double> next(cur.size() - 1);
    for (size_t i = 0; i + 1 < cur.size(); ++i) next[i] = cur[i + 1] - cur[i];
    cur = std::move(next);
  }
  return cur;
}

Status Fft(std::vector<std::complex<double>>* data, bool inverse) {
  size_t n = data->size();
  if (n == 0) return Status::OK();
  if ((n & (n - 1)) != 0) {
    return Status::InvalidArgument("FFT size must be a power of two, got " +
                                   std::to_string(n));
  }
  auto& a = *data;
  // Bit-reversal permutation.
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (size_t len = 2; len <= n; len <<= 1) {
    double ang = 2.0 * std::numbers::pi / static_cast<double>(len) *
                 (inverse ? 1.0 : -1.0);
    std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0);
      for (size_t k = 0; k < len / 2; ++k) {
        std::complex<double> u = a[i + k];
        std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& x : a) x /= static_cast<double>(n);
  }
  return Status::OK();
}

std::vector<double> PowerSpectrum(const std::vector<double>& v) {
  if (v.empty()) return {};
  double m = Mean(v);
  size_t padded = NextPowerOfTwo(v.size());
  std::vector<std::complex<double>> data(padded, {0.0, 0.0});
  for (size_t i = 0; i < v.size(); ++i) data[i] = {v[i] - m, 0.0};
  (void)Fft(&data, /*inverse=*/false);
  std::vector<double> spectrum(padded / 2 + 1);
  for (size_t k = 0; k < spectrum.size(); ++k) {
    spectrum[k] = std::norm(data[k]);
  }
  return spectrum;
}

Result<std::vector<double>> SolveLinearSystem(std::vector<double> a,
                                              std::vector<double> b,
                                              size_t n) {
  if (a.size() != n * n || b.size() != n) {
    return Status::InvalidArgument("SolveLinearSystem: dimension mismatch");
  }
  for (size_t col = 0; col < n; ++col) {
    // Partial pivot.
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r * n + col]) > std::fabs(a[pivot * n + col])) pivot = r;
    }
    if (std::fabs(a[pivot * n + col]) < 1e-12) {
      return Status::InvalidArgument("SolveLinearSystem: singular matrix");
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    for (size_t r = col + 1; r < n; ++r) {
      double f = a[r * n + col] / a[col * n + col];
      if (f == 0.0) continue;
      for (size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (size_t c = ri + 1; c < n; ++c) acc -= a[ri * n + c] * x[c];
    x[ri] = acc / a[ri * n + ri];
  }
  return x;
}

std::vector<double> NormalMatrix(const std::vector<double>& x, size_t rows,
                                 size_t cols) {
  std::vector<double> xtx(cols * cols, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t i = 0; i < cols; ++i) {
      double xi = x[r * cols + i];
      for (size_t j = i; j < cols; ++j) {
        xtx[i * cols + j] += xi * x[r * cols + j];
      }
    }
  }
  for (size_t i = 0; i < cols; ++i) {
    for (size_t j = 0; j < i; ++j) xtx[i * cols + j] = xtx[j * cols + i];
  }
  return xtx;
}

Result<std::vector<double>> SolveNormalEquations(
    const std::vector<double>& xtx, const std::vector<double>& xty,
    size_t cols, double l2) {
  std::vector<double> a = xtx;
  for (size_t i = 0; i < cols; ++i) a[i * cols + i] += l2;
  auto res = SolveLinearSystem(std::move(a), xty, cols);
  if (!res.ok() && l2 == 0.0) {
    // Degenerate design matrix: retry with a small ridge for robustness.
    return SolveNormalEquations(xtx, xty, cols, 1e-8);
  }
  return res;
}

Result<std::vector<double>> LeastSquares(const std::vector<double>& x,
                                         const std::vector<double>& y,
                                         size_t rows, size_t cols,
                                         double l2) {
  if (x.size() != rows * cols || y.size() != rows) {
    return Status::InvalidArgument("LeastSquares: dimension mismatch");
  }
  if (rows == 0 || cols == 0) {
    return Status::InvalidArgument("LeastSquares: empty problem");
  }
  // Normal equations: (X^T X + l2 I) beta = X^T y.
  std::vector<double> xty(cols, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t i = 0; i < cols; ++i) xty[i] += x[r * cols + i] * y[r];
  }
  return SolveNormalEquations(NormalMatrix(x, rows, cols), xty, cols, l2);
}

std::pair<double, double> LinearTrendFit(const std::vector<double>& v) {
  size_t n = v.size();
  if (n == 0) return {0.0, 0.0};
  if (n == 1) return {v[0], 0.0};
  double tm = static_cast<double>(n - 1) / 2.0;
  double ym = Mean(v);
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double dt = static_cast<double>(i) - tm;
    num += dt * (v[i] - ym);
    den += dt * dt;
  }
  double slope = den > 0.0 ? num / den : 0.0;
  return {ym - slope * tm, slope};
}

std::vector<double> Softmax(const std::vector<double>& logits,
                            double temperature) {
  if (logits.empty()) return {};
  if (temperature <= 0.0) temperature = 1.0;
  double mx = *std::max_element(logits.begin(), logits.end());
  std::vector<double> out(logits.size());
  double sum = 0.0;
  for (size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp((logits[i] - mx) / temperature);
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
  return out;
}

size_t ArgMax(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return static_cast<size_t>(
      std::distance(v.begin(), std::max_element(v.begin(), v.end())));
}

size_t ArgMin(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return static_cast<size_t>(
      std::distance(v.begin(), std::min_element(v.begin(), v.end())));
}

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<double> Ranks(const std::vector<double>& v) {
  size_t n = v.size();
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && v[idx[j + 1]] == v[idx[i]]) ++j;
    double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[idx[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) return 0.0;
  return PearsonCorrelation(Ranks(a), Ranks(b));
}

}  // namespace easytime
