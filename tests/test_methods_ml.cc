#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <random>

#include "common/math_util.h"
#include "methods/gbdt.h"
#include "methods/knn.h"
#include "methods/linear_models.h"
#include "methods/window_util.h"
#include "test_util.h"

namespace easytime::methods {
namespace {

using ::easytime::testing::MakeLinearSeries;
using ::easytime::testing::MakeSeasonalSeries;

TEST(MakeWindows, ShapesAndContents) {
  std::vector<double> v = {0, 1, 2, 3, 4, 5};
  auto wd = MakeWindows(v, 3, 2).ValueOrDie();
  EXPECT_EQ(wd.inputs.size(), 2u);
  EXPECT_EQ(wd.inputs[0], (std::vector<double>{0, 1, 2}));
  EXPECT_EQ(wd.targets[0], (std::vector<double>{3, 4}));
  EXPECT_EQ(wd.inputs[1], (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(wd.targets[1], (std::vector<double>{4, 5}));
}

TEST(MakeWindows, Validation) {
  EXPECT_FALSE(MakeWindows({1, 2}, 0, 1).ok());
  EXPECT_FALSE(MakeWindows({1, 2}, 1, 0).ok());
  EXPECT_FALSE(MakeWindows({1, 2}, 4, 4).ok());
}

TEST(ChooseLookback, RespectsPeriodAndBounds) {
  EXPECT_EQ(ChooseLookback(500, 24, 12), 48u);  // 2 periods
  size_t lb = ChooseLookback(40, 0, 8);
  EXPECT_GE(lb, 8u);                 // at least horizon
  EXPECT_LE(lb + 8 + 1, 41u);        // leaves windows
}

TEST(RecursiveMultiStep, ExtendsBeyondTrainedHorizon) {
  // Model predicts [last+1, last+2] per call.
  auto predict = [](const std::vector<double>& w) {
    return std::vector<double>{w.back() + 1.0, w.back() + 2.0};
  };
  auto fc = RecursiveMultiStep({0, 1, 2}, 2, 2, 5, predict);
  ASSERT_EQ(fc.size(), 5u);
  EXPECT_DOUBLE_EQ(fc[0], 3.0);
  EXPECT_DOUBLE_EQ(fc[1], 4.0);
  EXPECT_DOUBLE_EQ(fc[2], 5.0);  // recursion: window now ends at 4
  EXPECT_DOUBLE_EQ(fc[3], 6.0);
  EXPECT_DOUBLE_EQ(fc[4], 7.0);
}

TEST(LagLinear, RecoversLinearContinuation) {
  auto v = MakeLinearSeries(100, 3.0, 2.0);
  LagLinearForecaster f(1e-6);
  FitContext ctx;
  ctx.horizon = 6;
  ASSERT_TRUE(f.Fit(v, ctx).ok());
  auto fc = f.Forecast(6).ValueOrDie();
  for (size_t h = 0; h < 6; ++h) {
    EXPECT_NEAR(fc[h], 3.0 + 2.0 * static_cast<double>(100 + h), 0.5);
  }
}

TEST(LagLinear, ForecastFromConditionsOnNewHistory) {
  auto v = MakeLinearSeries(100, 0.0, 1.0);
  LagLinearForecaster f(1e-6);
  FitContext ctx;
  ctx.horizon = 3;
  ASSERT_TRUE(f.Fit(v, ctx).ok());
  // New history shifted by +1000: prediction must follow it (linear model
  // on lags extrapolates the same slope from the new level).
  std::vector<double> shifted = MakeLinearSeries(60, 1000.0, 1.0);
  auto fc = f.ForecastFrom(shifted, 3).ValueOrDie();
  EXPECT_NEAR(fc[0], 1060.0, 2.0);
}

TEST(NLinear, InvariantToLevelShift) {
  auto v = MakeSeasonalSeries(120, 12, 4.0, 0.0, 0.1);
  NLinearForecaster f(1e-4);
  FitContext ctx;
  ctx.horizon = 6;
  ctx.period_hint = 12;
  ASSERT_TRUE(f.Fit(v, ctx).ok());
  auto base = f.Forecast(6).ValueOrDie();
  // Shift history by a constant: forecasts shift by the same constant.
  std::vector<double> shifted = v;
  for (auto& x : shifted) x += 500.0;
  auto moved = f.ForecastFrom(shifted, 6).ValueOrDie();
  for (size_t h = 0; h < 6; ++h) {
    EXPECT_NEAR(moved[h] - base[h], 500.0, 1e-6);
  }
}

TEST(DLinear, TracksTrendPlusSeason) {
  auto v = MakeSeasonalSeries(144, 12, 5.0, 0.3, 0.15);
  std::vector<double> train(v.begin(), v.end() - 12);
  std::vector<double> actual(v.end() - 12, v.end());
  DLinearForecaster f(1e-3);
  FitContext ctx;
  ctx.horizon = 12;
  ctx.period_hint = 12;
  ASSERT_TRUE(f.Fit(train, ctx).ok());
  auto fc = f.Forecast(12).ValueOrDie();
  double mae = 0.0;
  for (size_t h = 0; h < 12; ++h) mae += std::fabs(fc[h] - actual[h]);
  mae /= 12.0;
  EXPECT_LT(mae, 1.5);
}

TEST(Knn, NearestPatternDrivesForecast) {
  // Periodic sawtooth: the continuation of the matched pattern is exact.
  std::vector<double> v;
  for (int rep = 0; rep < 30; ++rep) {
    for (int i = 0; i < 8; ++i) v.push_back(static_cast<double>(i));
  }
  KnnForecaster f(3);
  FitContext ctx;
  ctx.horizon = 4;
  ctx.period_hint = 8;
  ASSERT_TRUE(f.Fit(v, ctx).ok());
  auto fc = f.Forecast(4).ValueOrDie();
  // History ends at 7; continuation is 0,1,2,3.
  EXPECT_NEAR(fc[0], 0.0, 0.5);
  EXPECT_NEAR(fc[3], 3.0, 0.5);
}

TEST(Knn, SingleNeighborEqualsNearestContinuation) {
  std::vector<double> v;
  for (int rep = 0; rep < 20; ++rep) {
    for (int i = 0; i < 6; ++i) v.push_back(i == 3 ? 10.0 : 0.0);
  }
  KnnForecaster f(1);
  FitContext ctx;
  ctx.horizon = 6;
  ASSERT_TRUE(f.Fit(v, ctx).ok());
  auto fc = f.Forecast(6).ValueOrDie();
  for (double x : fc) EXPECT_TRUE(std::isfinite(x));
}

TEST(Gbdt, LearnsSquareWave) {
  // A square wave is piecewise-constant — trees express it exactly while
  // the phase logic is awkward for linear models.
  std::vector<double> v;
  for (int t = 0; t < 400; ++t) v.push_back(t % 8 < 4 ? 0.0 : 10.0);
  GbdtForecaster::Options opt;
  opt.lookback = 8;
  GbdtForecaster f(opt);
  ASSERT_TRUE(f.Fit(v, {}).ok());
  EXPECT_EQ(f.num_trees(), opt.num_trees);

  // Continuation: t = 400..407 -> 0,0,0,0,10,10,10,10.
  auto fc = f.Forecast(8).ValueOrDie();
  for (size_t h = 0; h < 8; ++h) {
    double expected = (400 + h) % 8 < 4 ? 0.0 : 10.0;
    EXPECT_NEAR(fc[h], expected, 2.0) << "h=" << h;
  }
  // Conditioning on an in-distribution history flips the prediction.
  auto next_low = f.ForecastFrom({0, 0, 0, 0, 10, 10, 10, 10}, 1).ValueOrDie();
  auto next_high = f.ForecastFrom({10, 10, 10, 10, 0, 0, 0, 0}, 1).ValueOrDie();
  EXPECT_LT(next_low[0], 3.0);
  EXPECT_GT(next_high[0], 7.0);
}

TEST(RegressionTree, SplitsOnInformativeFeature) {
  // y depends on feature 1 only.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    double f1 = i % 2 == 0 ? 0.0 : 1.0;
    x.push_back({static_cast<double>(i), f1});
    y.push_back(f1 * 10.0);
  }
  RegressionTree tree;
  RegressionTree::Options opt;
  opt.max_depth = 2;
  tree.Fit(x, y, opt);
  EXPECT_NEAR(tree.Predict({50.0, 0.0}), 0.0, 0.5);
  EXPECT_NEAR(tree.Predict({51.0, 1.0}), 10.0, 0.5);
}

TEST(RegressionTree, LeafWhenPure) {
  std::vector<std::vector<double>> x = {{1}, {2}, {3}, {4}};
  std::vector<double> y = {5, 5, 5, 5};
  RegressionTree tree;
  tree.Fit(x, y, {});
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.Predict({9}), 5.0);
}

// The split search as it was before presorting: every node sorts its rows
// per feature. Kept as the oracle the presorted search must match.
class PerNodeSortTree {
 public:
  void Fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y, size_t max_depth, size_t min_leaf) {
    std::vector<size_t> idx(x.size());
    std::iota(idx.begin(), idx.end(), 0);
    Build(x, y, idx, 0, max_depth, min_leaf);
  }
  double Predict(const std::vector<double>& features) const {
    size_t cur = 0;
    while (nodes_[cur].feature >= 0) {
      const size_t f = static_cast<size_t>(nodes_[cur].feature);
      cur = static_cast<size_t>(features[f] <= nodes_[cur].threshold
                                    ? nodes_[cur].left
                                    : nodes_[cur].right);
    }
    return nodes_[cur].value;
  }
  size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    int left = -1;
    int right = -1;
  };
  int Build(const std::vector<std::vector<double>>& x,
            const std::vector<double>& y, std::vector<size_t>& idx,
            size_t depth, size_t max_depth, size_t min_leaf) {
    Node node;
    double sum = 0.0;
    for (size_t i : idx) sum += y[i];
    double mean = idx.empty() ? 0.0 : sum / static_cast<double>(idx.size());
    node.value = mean;
    if (depth < max_depth && idx.size() >= 2 * min_leaf) {
      double base_sse = 0.0;
      for (size_t i : idx) base_sse += (y[i] - mean) * (y[i] - mean);
      double best_gain = 1e-12;
      int best_feature = -1;
      double best_threshold = 0.0;
      for (size_t f = 0; f < x[0].size(); ++f) {
        std::vector<size_t> order = idx;
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) { return x[a][f] < x[b][f]; });
        double left_sum = 0.0, left_sq = 0.0, total_sq = 0.0;
        for (size_t i : idx) total_sq += y[i] * y[i];
        for (size_t pos = 0; pos + 1 < order.size(); ++pos) {
          double yi = y[order[pos]];
          left_sum += yi;
          left_sq += yi * yi;
          if (x[order[pos]][f] == x[order[pos + 1]][f]) continue;
          size_t nl = pos + 1;
          size_t nr = order.size() - nl;
          if (nl < min_leaf || nr < min_leaf) continue;
          double right_sum = sum - left_sum;
          double right_sq = total_sq - left_sq;
          double gain =
              base_sse -
              (left_sq - left_sum * left_sum / static_cast<double>(nl)) -
              (right_sq - right_sum * right_sum / static_cast<double>(nr));
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = static_cast<int>(f);
            best_threshold = 0.5 * (x[order[pos]][f] + x[order[pos + 1]][f]);
          }
        }
      }
      if (best_feature >= 0) {
        std::vector<size_t> left, right;
        for (size_t i : idx) {
          (x[i][static_cast<size_t>(best_feature)] <= best_threshold ? left
                                                                     : right)
              .push_back(i);
        }
        if (!left.empty() && !right.empty()) {
          node.feature = best_feature;
          node.threshold = best_threshold;
          int self = static_cast<int>(nodes_.size());
          nodes_.push_back(node);
          int l = Build(x, y, left, depth + 1, max_depth, min_leaf);
          int r = Build(x, y, right, depth + 1, max_depth, min_leaf);
          nodes_[static_cast<size_t>(self)].left = l;
          nodes_[static_cast<size_t>(self)].right = r;
          return self;
        }
      }
    }
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  }

  std::vector<Node> nodes_;
};

TEST(RegressionTree, PresortedSearchMatchesPerNodeSortBitForBit) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (size_t depth : {1u, 3u, 6u}) {
    for (size_t min_leaf : {1u, 4u}) {
      // Continuous random features: no ties, so (value, row) order is the
      // only order a sort can produce.
      std::vector<std::vector<double>> x(300, std::vector<double>(5));
      std::vector<double> y(x.size());
      for (size_t r = 0; r < x.size(); ++r) {
        for (double& v : x[r]) v = u(rng);
        y[r] = 3.0 * x[r][1] * x[r][1] - x[r][3] + 0.3 * u(rng);
      }
      PerNodeSortTree want;
      want.Fit(x, y, depth, min_leaf);
      RegressionTree got;
      RegressionTree::Options opt;
      opt.max_depth = depth;
      opt.min_samples_leaf = min_leaf;
      got.Fit(x, y, opt);
      ASSERT_EQ(got.node_count(), want.node_count())
          << "depth " << depth << " min_leaf " << min_leaf;
      for (const auto& row : x) ASSERT_EQ(got.Predict(row), want.Predict(row));
      for (int probe = 0; probe < 200; ++probe) {
        std::vector<double> q(5);
        for (double& v : q) v = u(rng);
        ASSERT_EQ(got.Predict(q), want.Predict(q));
      }
    }
  }
}

// Per-step ridge heads fitted one LeastSquares solve each: the oracle the
// shared-X^T-X FitHeads must match bit for bit.
using Encoder = std::function<std::vector<double>(const std::vector<double>&,
                                                  double*)>;
std::vector<std::vector<double>> LeastSquaresHeads(
    const std::vector<std::vector<double>>& inputs,
    const std::vector<std::vector<double>>& targets, size_t horizon,
    double l2, const Encoder& encode) {
  const size_t rows = inputs.size();
  double off = 0.0;
  const size_t cols = encode(inputs[0], &off).size() + 1;
  std::vector<double> x(rows * cols);
  std::vector<double> offsets(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> f = encode(inputs[r], &offsets[r]);
    x[r * cols] = 1.0;
    std::copy(f.begin(), f.end(), x.begin() + static_cast<long>(r * cols + 1));
  }
  std::vector<std::vector<double>> heads;
  std::vector<double> y(rows);
  for (size_t h = 0; h < horizon; ++h) {
    for (size_t r = 0; r < rows; ++r) y[r] = targets[r][h] - offsets[r];
    heads.push_back(LeastSquares(x, y, rows, cols, l2).ValueOrDie());
  }
  return heads;
}

std::vector<double> Apply(const std::vector<std::vector<double>>& heads,
                          const std::vector<double>& f, double offset) {
  std::vector<double> out;
  for (const auto& w : heads) {
    double v = w[0];
    for (size_t j = 0; j < f.size(); ++j) v += w[j + 1] * f[j];
    out.push_back(v + offset);
  }
  return out;
}

std::vector<double> ReferenceLagLinear(const std::vector<double>& train,
                                       size_t lookback, size_t horizon,
                                       double l2, size_t steps) {
  WindowedData wd = MakeWindows(train, lookback, horizon).ValueOrDie();
  Encoder identity = [](const std::vector<double>& w, double* off) {
    *off = 0.0;
    return w;
  };
  auto heads = LeastSquaresHeads(wd.inputs, wd.targets, horizon, l2, identity);
  return RecursiveMultiStep(
      train, lookback, horizon, steps,
      [&](const std::vector<double>& w) { return Apply(heads, w, 0.0); });
}

std::vector<double> ReferenceDLinear(const std::vector<double>& train,
                                     size_t lookback, size_t horizon,
                                     size_t ma, double l2, size_t steps) {
  WindowedData wd = MakeWindows(train, lookback, horizon).ValueOrDie();
  Encoder trend = [ma](const std::vector<double>& w, double* off) {
    *off = 0.0;
    return MovingAverage(w, ma);
  };
  Encoder season = [ma](const std::vector<double>& w, double* off) {
    *off = 0.0;
    std::vector<double> t = MovingAverage(w, ma);
    for (size_t i = 0; i < t.size(); ++i) t[i] = w[i] - t[i];
    return t;
  };
  auto trend_heads =
      LeastSquaresHeads(wd.inputs, wd.targets, horizon, l2, trend);
  std::vector<std::vector<double>> residuals;
  for (size_t r = 0; r < wd.inputs.size(); ++r) {
    double off = 0.0;
    std::vector<double> pred =
        Apply(trend_heads, trend(wd.inputs[r], &off), off);
    residuals.emplace_back(horizon);
    for (size_t h = 0; h < horizon; ++h) {
      residuals[r][h] = wd.targets[r][h] - pred[h];
    }
  }
  auto season_heads =
      LeastSquaresHeads(wd.inputs, residuals, horizon, l2, season);
  return RecursiveMultiStep(
      train, lookback, horizon, steps, [&](const std::vector<double>& w) {
        double off = 0.0;
        std::vector<double> out = Apply(trend_heads, trend(w, &off), 0.0);
        std::vector<double> s = Apply(season_heads, season(w, &off), 0.0);
        for (size_t h = 0; h < out.size(); ++h) out[h] += s[h];
        return out;
      });
}

TEST(FitHeads, SharedNormalMatrixMatchesPerHeadLeastSquaresBitForBit) {
  constexpr size_t kLookback = 12, kHorizon = 6, kSteps = 15;
  const std::vector<double> seasonal =
      MakeSeasonalSeries(240, 12, 4.0, 0.05, 0.4);
  // A constant series makes every lag column equal the bias column: with
  // l2 == 0 the normal matrix is singular and the 1e-8 ridge fallback runs.
  const std::vector<double> constant(120, 5.0);
  {
    WindowedData wd = MakeWindows(constant, kLookback, kHorizon).ValueOrDie();
    std::vector<double> x, y;
    for (size_t r = 0; r < wd.inputs.size(); ++r) {
      x.push_back(1.0);
      x.insert(x.end(), wd.inputs[r].begin(), wd.inputs[r].end());
      y.push_back(wd.targets[r][0]);
    }
    ASSERT_EQ(LeastSquares(x, y, wd.inputs.size(), kLookback + 1, 0.0)
                  .ValueOrDie(),
              LeastSquares(x, y, wd.inputs.size(), kLookback + 1, 1e-8)
                  .ValueOrDie())
        << "the constant series must take the degenerate fallback";
  }
  FitContext ctx;
  ctx.horizon = kHorizon;
  for (const auto* series : {&seasonal, &constant}) {
    for (double l2 : {0.0, 1.0}) {
      LagLinearForecaster lag(l2, kLookback);
      ASSERT_TRUE(lag.Fit(*series, ctx).ok());
      EXPECT_EQ(lag.Forecast(kSteps).ValueOrDie(),
                ReferenceLagLinear(*series, kLookback, kHorizon, l2, kSteps))
          << "lag_linear l2=" << l2;
      DLinearForecaster dl(l2, kLookback, 5);
      ASSERT_TRUE(dl.Fit(*series, ctx).ok());
      EXPECT_EQ(dl.Forecast(kSteps).ValueOrDie(),
                ReferenceDLinear(*series, kLookback, kHorizon, 5, l2, kSteps))
          << "dlinear l2=" << l2;
    }
  }
}

}  // namespace
}  // namespace easytime::methods
