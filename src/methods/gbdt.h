#pragma once

/// \file gbdt.h
/// \brief Gradient-boosted regression trees on lag features — a from-scratch
/// GBDT (least-squares boosting, greedy variance-reduction splits) standing
/// in for the XGBoost-style baselines in TFB's ML family.

#include <cstdint>
#include <memory>

#include "methods/forecaster.h"
#include "methods/window_util.h"

namespace easytime::methods {

/// \brief One regression tree with axis-aligned splits.
class RegressionTree {
 public:
  struct Options {
    size_t max_depth = 3;
    size_t min_samples_leaf = 4;
    /// Optional cooperative cancellation (not owned). When it reports
    /// expired, Build stops searching for splits and emits leaves, so a
    /// deep recursion unwinds in microseconds instead of finishing the
    /// remaining per-feature scans.
    easytime::DeadlineChecker* cancel = nullptr;
  };

  /// Row ids of a feature matrix sorted per feature in (value, row) order:
  /// [feature][rank] -> row.
  using FeatureOrder = std::vector<std::vector<uint32_t>>;
  /// Sorts \p x's columns. A boosted fit sorts its lag matrix once and
  /// every tree reuses the orders, so a node's split search is a linear
  /// scan rather than a sort.
  static FeatureOrder SortFeatures(const std::vector<std::vector<double>>& x);

  /// Fits the tree to (features, residual targets).
  void Fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y, const Options& options);
  /// Same, with \p order = SortFeatures(x) computed by the caller.
  void Fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y, const FeatureOrder& order,
           const Options& options);

  /// Predicts a single feature vector.
  double Predict(const std::vector<double>& features) const;

  /// Number of nodes (diagnostics).
  size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    int feature = -1;        ///< -1 for leaves
    double threshold = 0.0;
    double value = 0.0;      ///< leaf prediction
    int left = -1;
    int right = -1;
  };
  /// Per-fit working state (row ids, per-feature orders): every node owns
  /// the range [begin, end) of each, and a split partitions it stably.
  struct Work;
  int Build(const std::vector<std::vector<double>>& x,
            const std::vector<double>& y, Work& work, size_t begin,
            size_t end, size_t depth, const Options& options);

  std::vector<Node> nodes_;
};

/// Boosted trees forecaster (one-step-ahead, applied recursively).
class GbdtForecaster : public Forecaster {
 public:
  struct Options {
    size_t num_trees = 60;
    double learning_rate = 0.15;
    size_t max_depth = 3;
    size_t min_samples_leaf = 4;
    size_t lookback = 0;  ///< 0 = auto
  };

  GbdtForecaster() = default;
  explicit GbdtForecaster(Options options) : options_(options) {}

  easytime::Status Fit(const std::vector<double>& train,
                       const FitContext& ctx) override;
  easytime::Result<std::vector<double>> Forecast(size_t horizon) const override;
  easytime::Result<std::vector<double>> ForecastFrom(
      const std::vector<double>& history, size_t horizon) override;
  std::string name() const override { return "gbdt"; }
  Family family() const override { return Family::kMachineLearning; }

  size_t num_trees() const { return trees_.size(); }

 private:
  double PredictOne(const std::vector<double>& features) const;

  Options options_;
  size_t lookback_ = 0;
  double base_prediction_ = 0.0;
  std::vector<RegressionTree> trees_;
  std::vector<double> train_tail_;
  bool fitted_ = false;
};

}  // namespace easytime::methods
