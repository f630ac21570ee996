#include "methods/linear_models.h"

#include <algorithm>

#include "common/math_util.h"

namespace easytime::methods {

namespace {

/// Fits one ridge head per target step over shared features.
/// features: rows x (L+1 with bias); returns per-step coefficient vectors.
/// The heads share one design matrix, so X^T X is built once and each head
/// adds only its X^T y — accumulated as in LeastSquares, so every head
/// equals a LeastSquares solve bit for bit. The deadline is checked before
/// every head's solve.
Result<std::vector<std::vector<double>>> FitHeads(
    const std::vector<std::vector<double>>& inputs,
    const std::vector<std::vector<double>>& targets, size_t horizon,
    double l2,
    const std::function<std::vector<double>(const std::vector<double>&,
                                            double*)>& encode,
    const Deadline& deadline) {
  size_t rows = inputs.size();
  if (rows == 0) return Status::InvalidArgument("no training windows");
  double dummy = 0.0;
  size_t feat_dim = encode(inputs[0], &dummy).size();
  size_t cols = feat_dim + 1;  // bias

  std::vector<double> x(rows * cols);
  std::vector<double> offsets(rows, 0.0);
  DeadlineChecker checker(deadline, 1);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> f = encode(inputs[r], &offsets[r]);
    x[r * cols] = 1.0;
    std::copy(f.begin(), f.end(), x.begin() + static_cast<long>(r * cols + 1));
  }

  const std::vector<double> xtx = NormalMatrix(x, rows, cols);
  std::vector<std::vector<double>> heads(horizon);
  std::vector<double> xty(cols);
  for (size_t h = 0; h < horizon; ++h) {
    if (checker.Expired()) {
      return Status::DeadlineExceeded("linear fit aborted mid-heads");
    }
    std::fill(xty.begin(), xty.end(), 0.0);
    for (size_t r = 0; r < rows; ++r) {
      const double y = targets[r][h] - offsets[r];
      for (size_t i = 0; i < cols; ++i) xty[i] += x[r * cols + i] * y;
    }
    EASYTIME_ASSIGN_OR_RETURN(heads[h],
                              SolveNormalEquations(xtx, xty, cols, l2));
  }
  return heads;
}

std::vector<double> ApplyHeads(
    const std::vector<std::vector<double>>& heads,
    const std::vector<double>& features, double offset) {
  std::vector<double> out(heads.size());
  for (size_t h = 0; h < heads.size(); ++h) {
    double v = heads[h][0];
    for (size_t j = 0; j < features.size(); ++j) {
      v += heads[h][j + 1] * features[j];
    }
    out[h] = v + offset;
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------ LagLinear

std::vector<double> LagLinearForecaster::EncodeWindow(
    const std::vector<double>& window, double* offset) const {
  *offset = 0.0;
  return window;
}

Status LagLinearForecaster::Fit(const std::vector<double>& train,
                                const FitContext& ctx) {
  size_t horizon = std::max<size_t>(1, ctx.horizon);
  size_t lookback = lookback_cfg_ != 0
                        ? lookback_cfg_
                        : ChooseLookback(train.size(), ctx.period_hint,
                                         horizon);
  EASYTIME_ASSIGN_OR_RETURN(WindowedData wd,
                            MakeWindows(train, lookback, horizon));
  auto encode = [this](const std::vector<double>& w, double* off) {
    return EncodeWindow(w, off);
  };
  auto heads =
      FitHeads(wd.inputs, wd.targets, horizon, l2_, encode, ctx.deadline);
  if (!heads.ok()) {
    fitted_ = false;
    return heads.status();
  }
  weights_ = std::move(heads).ValueOrDie();
  lookback_ = lookback;
  trained_horizon_ = horizon;
  train_tail_ = train;
  fitted_ = true;
  return Status::OK();
}

std::vector<double> LagLinearForecaster::PredictWindow(
    const std::vector<double>& window) const {
  double offset = 0.0;
  std::vector<double> f = EncodeWindow(window, &offset);
  return ApplyHeads(weights_, f, offset);
}

Result<std::vector<double>> LagLinearForecaster::Forecast(
    size_t horizon) const {
  if (!fitted_) return Status::Internal("Forecast called before Fit");
  return RecursiveMultiStep(
      train_tail_, lookback_, trained_horizon_, horizon,
      [this](const std::vector<double>& w) { return PredictWindow(w); });
}

Result<std::vector<double>> LagLinearForecaster::ForecastFrom(
    const std::vector<double>& history, size_t horizon) {
  if (!fitted_) return Status::Internal("ForecastFrom called before Fit");
  if (history.empty()) {
    return Status::InvalidArgument("history must be non-empty");
  }
  return RecursiveMultiStep(
      history, lookback_, trained_horizon_, horizon,
      [this](const std::vector<double>& w) { return PredictWindow(w); });
}

// ------------------------------------------------------------ NLinear

std::vector<double> NLinearForecaster::EncodeWindow(
    const std::vector<double>& window, double* offset) const {
  *offset = window.empty() ? 0.0 : window.back();
  std::vector<double> out(window.size());
  for (size_t i = 0; i < window.size(); ++i) out[i] = window[i] - *offset;
  return out;
}

// ------------------------------------------------------------ DLinear

Status DLinearForecaster::Fit(const std::vector<double>& train,
                              const FitContext& ctx) {
  size_t horizon = std::max<size_t>(1, ctx.horizon);
  size_t lookback = lookback_cfg_ != 0
                        ? lookback_cfg_
                        : ChooseLookback(train.size(), ctx.period_hint,
                                         horizon);
  ma_window_ = ma_window_cfg_ != 0
                   ? ma_window_cfg_
                   : std::max<size_t>(3, (ctx.period_hint != 0
                                              ? ctx.period_hint
                                              : lookback / 4) |
                                             1);
  EASYTIME_ASSIGN_OR_RETURN(WindowedData wd,
                            MakeWindows(train, lookback, horizon));

  auto encode_trend = [this](const std::vector<double>& w, double* off) {
    *off = 0.0;
    return MovingAverage(w, ma_window_);
  };
  auto encode_season = [this](const std::vector<double>& w, double* off) {
    *off = 0.0;
    std::vector<double> trend = MovingAverage(w, ma_window_);
    std::vector<double> out(w.size());
    for (size_t i = 0; i < w.size(); ++i) out[i] = w[i] - trend[i];
    return out;
  };

  // Split the target across heads: the trend head learns to predict the
  // target from the trend component, the season head from the remainder;
  // their sum reconstructs the forecast. We fit both against halved targets
  // jointly through the standard DLinear trick: fit each head against the
  // full target and average. Simpler and equally effective at this scale:
  // fit trend head on targets, season head on residuals of the trend head.
  auto trend_heads =
      FitHeads(wd.inputs, wd.targets, horizon, l2_, encode_trend,
               ctx.deadline);
  if (!trend_heads.ok()) {
    fitted_ = false;
    return trend_heads.status();
  }
  trend_weights_ = std::move(trend_heads).ValueOrDie();

  // Residual targets for the season head.
  DeadlineChecker checker(ctx.deadline, 64);
  std::vector<std::vector<double>> residuals(wd.inputs.size());
  for (size_t r = 0; r < wd.inputs.size(); ++r) {
    if (checker.Expired()) {
      trend_weights_.clear();
      fitted_ = false;
      return Status::DeadlineExceeded("dlinear fit aborted mid-residuals");
    }
    double off = 0.0;
    std::vector<double> f = encode_trend(wd.inputs[r], &off);
    std::vector<double> pred = ApplyHeads(trend_weights_, f, off);
    residuals[r].resize(horizon);
    for (size_t h = 0; h < horizon; ++h) {
      residuals[r][h] = wd.targets[r][h] - pred[h];
    }
  }
  auto season_heads =
      FitHeads(wd.inputs, residuals, horizon, l2_, encode_season,
               ctx.deadline);
  if (!season_heads.ok()) {
    trend_weights_.clear();
    fitted_ = false;
    return season_heads.status();
  }
  season_weights_ = std::move(season_heads).ValueOrDie();

  lookback_ = lookback;
  trained_horizon_ = horizon;
  train_tail_ = train;
  fitted_ = true;
  return Status::OK();
}

std::vector<double> DLinearForecaster::PredictWindow(
    const std::vector<double>& window) const {
  std::vector<double> trend = MovingAverage(window, ma_window_);
  std::vector<double> season(window.size());
  for (size_t i = 0; i < window.size(); ++i) season[i] = window[i] - trend[i];
  std::vector<double> out = ApplyHeads(trend_weights_, trend, 0.0);
  std::vector<double> s = ApplyHeads(season_weights_, season, 0.0);
  for (size_t h = 0; h < out.size(); ++h) out[h] += s[h];
  return out;
}

Result<std::vector<double>> DLinearForecaster::Forecast(size_t horizon) const {
  if (!fitted_) return Status::Internal("Forecast called before Fit");
  return RecursiveMultiStep(
      train_tail_, lookback_, trained_horizon_, horizon,
      [this](const std::vector<double>& w) { return PredictWindow(w); });
}

Result<std::vector<double>> DLinearForecaster::ForecastFrom(
    const std::vector<double>& history, size_t horizon) {
  if (!fitted_) return Status::Internal("ForecastFrom called before Fit");
  if (history.empty()) {
    return Status::InvalidArgument("history must be non-empty");
  }
  return RecursiveMultiStep(
      history, lookback_, trained_horizon_, horizon,
      [this](const std::vector<double>& w) { return PredictWindow(w); });
}

}  // namespace easytime::methods
