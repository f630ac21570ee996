#include "methods/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/math_util.h"

namespace easytime::methods {

namespace {

/// Stable in-place partition of ids[begin, end) by \p goes_left: the
/// left-going ids keep their order at the front, the rest follow in order.
void StablePartition(std::vector<uint32_t>& ids, size_t begin, size_t end,
                     const std::vector<char>& goes_left,
                     std::vector<uint32_t>& spill) {
  size_t out = begin;
  size_t spilled = 0;
  for (size_t p = begin; p < end; ++p) {
    const uint32_t r = ids[p];
    if (goes_left[r]) {
      ids[out++] = r;
    } else {
      spill[spilled++] = r;
    }
  }
  std::copy(spill.begin(), spill.begin() + static_cast<long>(spilled),
            ids.begin() + static_cast<long>(out));
}

}  // namespace

RegressionTree::FeatureOrder RegressionTree::SortFeatures(
    const std::vector<std::vector<double>>& x) {
  const size_t num_features = x.empty() ? 0 : x[0].size();
  FeatureOrder out(num_features, std::vector<uint32_t>(x.size()));
  for (size_t f = 0; f < num_features; ++f) {
    std::vector<uint32_t>& order = out[f];
    std::iota(order.begin(), order.end(), 0u);
    // Stable on ascending ids, so equal values stay in row order.
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return x[a][f] < x[b][f];
    });
  }
  return out;
}

struct RegressionTree::Work {
  std::vector<uint32_t> rows;                ///< ascending row ids
  std::vector<std::vector<uint32_t>> order;  ///< per feature, (value, row)
  std::vector<char> goes_left;               ///< [row] side of a split
  std::vector<uint32_t> spill;               ///< partition scratch
};

void RegressionTree::Fit(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y,
                         const Options& options) {
  Fit(x, y, SortFeatures(x), options);
}

void RegressionTree::Fit(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y,
                         const FeatureOrder& order, const Options& options) {
  nodes_.clear();
  Work work;
  work.rows.resize(x.size());
  std::iota(work.rows.begin(), work.rows.end(), 0u);
  work.order = order;
  work.goes_left.assign(x.size(), 0);
  work.spill.resize(x.size());
  Build(x, y, work, 0, x.size(), 0, options);
}

int RegressionTree::Build(const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y, Work& work,
                          size_t begin, size_t end, size_t depth,
                          const Options& options) {
  const size_t n = end - begin;
  const uint32_t* rows = work.rows.data() + begin;
  Node node;
  double sum = 0.0;
  for (size_t p = 0; p < n; ++p) sum += y[rows[p]];
  double mean = n == 0 ? 0.0 : sum / static_cast<double>(n);
  node.value = mean;

  bool make_leaf = depth >= options.max_depth ||
                   n < 2 * options.min_samples_leaf ||
                   (options.cancel && options.cancel->Expired());
  if (!make_leaf) {
    // Greedy best split by SSE reduction.
    const size_t num_features = work.order.size();
    double base_sse = 0.0;
    double total_sq = 0.0;
    for (size_t p = 0; p < n; ++p) {
      const double yi = y[rows[p]];
      base_sse += (yi - mean) * (yi - mean);
      total_sq += yi * yi;
    }

    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;
    for (size_t f = 0; f < num_features; ++f) {
      if (options.cancel && options.cancel->Expired()) break;
      // The node's rows in (value, row) order: prefix sums along it score
      // every cut point in one pass.
      const uint32_t* order = work.order[f].data() + begin;
      double left_sum = 0.0, left_sq = 0.0;
      for (size_t pos = 0; pos + 1 < n; ++pos) {
        double yi = y[order[pos]];
        left_sum += yi;
        left_sq += yi * yi;
        // Can't split between equal feature values.
        const double here = x[order[pos]][f];
        const double next = x[order[pos + 1]][f];
        if (here == next) continue;
        size_t nl = pos + 1;
        size_t nr = n - nl;
        if (nl < options.min_samples_leaf || nr < options.min_samples_leaf) {
          continue;
        }
        double right_sum = sum - left_sum;
        double right_sq = total_sq - left_sq;
        double sse_l = left_sq - left_sum * left_sum / static_cast<double>(nl);
        double sse_r =
            right_sq - right_sum * right_sum / static_cast<double>(nr);
        double gain = base_sse - sse_l - sse_r;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (here + next);
        }
      }
    }
    if (best_feature >= 0) {
      const size_t bf = static_cast<size_t>(best_feature);
      size_t nl = 0;
      for (size_t p = 0; p < n; ++p) {
        const bool left = x[rows[p]][bf] <= best_threshold;
        work.goes_left[rows[p]] = left;
        nl += left;
      }
      if (nl > 0 && nl < n) {
        StablePartition(work.rows, begin, end, work.goes_left, work.spill);
        // Children at max_depth are leaves and never scan their orders.
        if (depth + 1 < options.max_depth) {
          for (auto& order : work.order) {
            StablePartition(order, begin, end, work.goes_left, work.spill);
          }
        }
        node.feature = best_feature;
        node.threshold = best_threshold;
        int self = static_cast<int>(nodes_.size());
        nodes_.push_back(node);
        int l = Build(x, y, work, begin, begin + nl, depth + 1, options);
        int r = Build(x, y, work, begin + nl, end, depth + 1, options);
        nodes_[static_cast<size_t>(self)].left = l;
        nodes_[static_cast<size_t>(self)].right = r;
        return self;
      }
    }
  }
  int self = static_cast<int>(nodes_.size());
  nodes_.push_back(node);
  return self;
}

double RegressionTree::Predict(const std::vector<double>& features) const {
  if (nodes_.empty()) return 0.0;
  size_t cur = 0;
  while (nodes_[cur].feature >= 0) {
    size_t f = static_cast<size_t>(nodes_[cur].feature);
    double v = f < features.size() ? features[f] : 0.0;
    int next = v <= nodes_[cur].threshold ? nodes_[cur].left
                                          : nodes_[cur].right;
    if (next < 0) break;
    cur = static_cast<size_t>(next);
  }
  return nodes_[cur].value;
}

Status GbdtForecaster::Fit(const std::vector<double>& train,
                           const FitContext& ctx) {
  size_t lookback =
      options_.lookback != 0
          ? options_.lookback
          : std::min<size_t>(ChooseLookback(train.size(), ctx.period_hint, 1),
                             24);
  // One-step-ahead supervision.
  EASYTIME_ASSIGN_OR_RETURN(WindowedData wd, MakeWindows(train, lookback, 1));

  std::vector<double> y(wd.targets.size());
  for (size_t i = 0; i < y.size(); ++i) y[i] = wd.targets[i][0];
  base_prediction_ = Mean(y);

  std::vector<double> residual(y.size());
  std::vector<double> current(y.size(), base_prediction_);
  trees_.clear();
  trees_.reserve(options_.num_trees);
  RegressionTree::Options topt;
  topt.max_depth = options_.max_depth;
  topt.min_samples_leaf = options_.min_samples_leaf;
  // The lag matrix is the same for every tree: sort its columns once.
  const RegressionTree::FeatureOrder order =
      RegressionTree::SortFeatures(wd.inputs);
  // The checker is shared with Build so an expired deadline also cuts the
  // current tree short, not just the boosting loop.
  DeadlineChecker deadline(ctx.deadline, 4);
  topt.cancel = &deadline;

  for (size_t m = 0; m < options_.num_trees; ++m) {
    if (deadline.Expired()) {
      trees_.clear();
      fitted_ = false;
      return Status::DeadlineExceeded("gbdt fit aborted mid-boosting");
    }
    for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - current[i];
    RegressionTree tree;
    tree.Fit(wd.inputs, residual, order, topt);
    for (size_t i = 0; i < y.size(); ++i) {
      current[i] += options_.learning_rate * tree.Predict(wd.inputs[i]);
    }
    trees_.push_back(std::move(tree));
  }
  lookback_ = lookback;
  train_tail_ = train;
  fitted_ = true;
  return Status::OK();
}

double GbdtForecaster::PredictOne(const std::vector<double>& features) const {
  double out = base_prediction_;
  for (const auto& tree : trees_) {
    out += options_.learning_rate * tree.Predict(features);
  }
  return out;
}

Result<std::vector<double>> GbdtForecaster::Forecast(size_t horizon) const {
  if (!fitted_) return Status::Internal("Forecast called before Fit");
  return RecursiveMultiStep(
      train_tail_, lookback_, 1, horizon,
      [this](const std::vector<double>& w) {
        return std::vector<double>{PredictOne(w)};
      });
}

Result<std::vector<double>> GbdtForecaster::ForecastFrom(
    const std::vector<double>& history, size_t horizon) {
  if (!fitted_) return Status::Internal("ForecastFrom called before Fit");
  if (history.empty()) {
    return Status::InvalidArgument("history must be non-empty");
  }
  return RecursiveMultiStep(
      history, lookback_, 1, horizon,
      [this](const std::vector<double>& w) {
        return std::vector<double>{PredictOne(w)};
      });
}

}  // namespace easytime::methods
