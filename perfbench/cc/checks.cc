#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

bool Close(double a, double b, double scale) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(scale),
                                              std::fabs(a), std::fabs(b)});
}

std::string Num(double v) {
  std::string s;
  AppendDouble(&s, v);
  return s;
}

/// Reads a numeric array; false when any element is not a finite number.
bool Numbers(const JValue& arr, std::vector<double>* out) {
  if (!arr.is_array()) return false;
  out->clear();
  for (const JValue& v : arr.items) {
    if (!v.is_number() || !std::isfinite(v.number)) return false;
    out->push_back(v.number);
  }
  return true;
}

}  // namespace

std::string CheckForecast(const Op& op, const JValue& result) {
  std::vector<double> got;
  if (!Numbers(result["values"], &got)) return "forecast values missing or not finite";
  if (got.size() != op.horizon) {
    return "forecast has " + std::to_string(got.size()) + " values, asked " +
           std::to_string(op.horizon);
  }
  if (op.series == nullptr || op.length == 0 || op.length > op.series->size()) {
    return "";  // no closed form to compare against
  }
  const double* v = op.series->data();
  const size_t n = op.length;
  const double last = v[n - 1];
  if (op.method == "naive") {
    for (size_t h = 0; h < got.size(); ++h) {
      if (got[h] != last) {
        return "naive step " + std::to_string(h + 1) + " is " + Num(got[h]) +
               ", last observation is " + Num(last);
      }
    }
  } else if (op.method == "mean") {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += v[i];
    const double mean = sum / static_cast<double>(n);
    for (double g : got) {
      if (!Close(g, mean, mean)) return "mean forecast " + Num(g) + " != " + Num(mean);
    }
  } else if (op.method == "drift") {
    const double slope = (last - v[0]) / static_cast<double>(n - 1);
    for (size_t h = 0; h < got.size(); ++h) {
      const double want = last + slope * static_cast<double>(h + 1);
      if (!Close(got[h], want, last)) {
        return "drift step " + std::to_string(h + 1) + " is " + Num(got[h]) +
               ", line gives " + Num(want);
      }
    }
  } else if (op.method == "ses") {
    const auto [lo, hi] = std::minmax_element(v, v + n);
    for (double g : got) {
      if (!Close(g, got[0], got[0])) return "ses forecast is not flat";
      if (g < *lo || g > *hi) return "ses forecast " + Num(g) + " outside history range";
    }
  }
  return "";
}

std::string CheckAppend(const Op& op, const JValue& result) {
  const double len = result.Num("length", -1.0);
  if (len != static_cast<double>(op.length)) {
    return "append acked length " + Num(len) + ", expected " +
           std::to_string(op.length);
  }
  return "";
}

std::string CheckStage(const JValue& result) {
  return result.Str("answer") == "OK." ? "" : "staging statement not acknowledged";
}

std::string CheckSqlForecast(const Op& op, const JValue& result) {
  const JValue& rows = result["rows"];
  if (!rows.is_array()) return "TS_FORECAST_BY returned no rows array";
  const size_t want = op.groups.size() * op.horizon;
  if (rows.items.size() != want) {
    return "TS_FORECAST_BY returned " + std::to_string(rows.items.size()) +
           " rows, expected " + std::to_string(want) + " (groups x horizon)";
  }
  for (size_t i = 0; i < rows.items.size(); ++i) {
    const JValue& r = rows.items[i];
    if (!r.is_array() || r.items.size() != 5) return "TS_FORECAST_BY row shape";
    const size_t g = i / op.horizon;
    const size_t step = i % op.horizon + 1;
    if (!r.items[0].is_string() || r.items[0].str != op.groups[g]) {
      return "TS_FORECAST_BY row " + std::to_string(i) + " has group '" +
             r.items[0].str + "', expected '" + op.groups[g] +
             "' (groups sorted, none missing)";
    }
    if (r.items[1].number != static_cast<double>(step)) {
      return "TS_FORECAST_BY forecast_step out of order";
    }
    const double point = r.items[2].number;
    const double lower = r.items[3].number;
    const double upper = r.items[4].number;
    if (!r.items[2].is_number() || !r.items[3].is_number() ||
        !r.items[4].is_number() || !std::isfinite(point) ||
        !std::isfinite(lower) || !std::isfinite(upper)) {
      return "TS_FORECAST_BY non-finite forecast";
    }
    if (!(lower <= point && point <= upper)) {
      return "TS_FORECAST_BY lower " + Num(lower) + " / point " + Num(point) +
             " / upper " + Num(upper) + " out of order";
    }
    if (op.method == "naive" && point != op.group_last[g]) {
      return "TS_FORECAST_BY naive point " + Num(point) + " != last staged " +
             Num(op.group_last[g]) + " of group " + op.groups[g];
    }
  }
  return "";
}

std::string CheckRecommend(const Op& op, const JValue& result,
                           const std::set<std::string>& registered) {
  const JValue& recs = result["recommendations"];
  if (!recs.is_array() || recs.items.empty()) return "recommend returned nothing";
  if (op.k != 0 && recs.items.size() > op.k) return "recommend returned more than k";
  std::set<std::string> seen;
  double prev = INFINITY;
  for (const JValue& r : recs.items) {
    const std::string m = r.Str("method");
    const double score = r.Num("score", NAN);
    if (registered.count(m) == 0) return "recommend named unregistered method '" + m + "'";
    if (!seen.insert(m).second) return "recommend repeated method '" + m + "'";
    if (!std::isfinite(score)) return "recommend score not finite";
    if (score > prev) return "recommend scores not in descending order";
    prev = score;
  }
  return "";
}

std::string CheckBacktest(const Op& op, const JValue& status) {
  if (status.Str("state") != "done") return "backtest ended " + status.Str("state");
  const double done = status.Num("done", -1), total = status.Num("total", -2);
  if (done != total || total != static_cast<double>(op.origins)) {
    return "backtest done/total " + Num(done) + "/" + Num(total) + ", origins " +
           std::to_string(op.origins);
  }
  const JValue& origins = status["result"]["origins"];
  if (!origins.is_array() || origins.items.size() != op.origins) {
    return "backtest report lacks its origins";
  }
  const std::vector<double>& y = *op.series;
  for (size_t i = 0; i < op.origins; ++i) {
    const JValue& o = origins.items[i];
    const size_t want_origin = op.length - op.horizon * (op.origins - i);
    if (o.Num("origin", -1) != static_cast<double>(want_origin)) {
      return "backtest origin " + std::to_string(i) + " at " +
             Num(o.Num("origin", -1)) + ", expected " + std::to_string(want_origin);
    }
    double mae = 0.0;
    for (size_t h = 0; h < op.horizon; ++h) {
      mae += std::fabs(y[want_origin + h] - y[want_origin - 1]);
    }
    mae /= static_cast<double>(op.horizon);
    const double got = o["metrics"].Num("mae", NAN);
    if (!Close(got, mae, mae)) {
      return "backtest origin " + std::to_string(want_origin) + " naive MAE " +
             Num(got) + ", expected " + Num(mae);
    }
  }
  return "";
}

std::string CheckEvaluate(const Op& op, const JValue& status) {
  if (status.Str("state") != "done") return "evaluate ended " + status.Str("state");
  const JValue& r = status["result"];
  const double records = r.Num("records", -1);
  if (records != static_cast<double>(op.expect_records)) {
    return "evaluate reported " + Num(records) + " records, expected " +
           std::to_string(op.expect_records) + " (methods x datasets)";
  }
  if (r.Num("ok", -1) != records) return "evaluate records not all ok";
  return "";
}

std::string CompareRows(const JValue& a, const JValue& b) {
  if (!a.is_array() || !b.is_array()) return "result rows missing";
  if (a.items.size() != b.items.size()) {
    return "row counts differ: " + std::to_string(a.items.size()) + " vs " +
           std::to_string(b.items.size());
  }
  for (size_t i = 0; i < a.items.size(); ++i) {
    const JValue& ra = a.items[i];
    const JValue& rb = b.items[i];
    if (ra.items.size() != rb.items.size()) return "row widths differ";
    for (size_t c = 0; c < ra.items.size(); ++c) {
      const JValue& x = ra.items[c];
      const JValue& y = rb.items[c];
      if (x.type != y.type) return "row " + std::to_string(i) + " column types differ";
      if (x.is_number() ? !Close(x.number, y.number, x.number)
                        : x.str != y.str) {
        return "row " + std::to_string(i) + " column " + std::to_string(c) +
               " differs";
      }
    }
  }
  return "";
}

std::string CheckMetricRows(const JValue& rows) {
  if (!rows.is_array() || rows.items.empty()) return "no result rows";
  for (const JValue& r : rows.items) {
    if (!r.is_array() || r.items.size() != 2 || !r.items[1].is_number() ||
        !std::isfinite(r.items[1].number) || r.items[1].number < 0.0) {
      return "a stored metric is not finite and >= 0";
    }
  }
  return "";
}

std::string RepeatRegistry::Check(const std::string& line, const JValue& values) {
  std::vector<double> got;
  for (const JValue& v : values.items) got.push_back(v.number);
  const size_t cut = line.find(", \"endpoint\"");
  const std::string key = cut == std::string::npos ? line : line.substr(cut);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = first_.emplace(key, got);
  if (fresh) return "";
  if (it->second.size() != got.size() ||
      std::memcmp(it->second.data(), got.data(), got.size() * sizeof(double)) != 0) {
    return "a repeated request answered different values";
  }
  return "";
}

}  // namespace perfbench
