#pragma once

/// \file checks.h
/// \brief Output checks. Each compares one answer of the program with what
/// the benchmark computed itself from the inputs it generated, or with a
/// property the method must have. A check returns "" when the answer is
/// right and a one-line reason when it is not.

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "minijson.h"
#include "stream.h"

namespace perfbench {

/// Forecast values against the method's closed form over the known series:
/// naive = the last value repeated (bit-exact), mean = the arithmetic mean,
/// drift = the line through the first and last observation, ses = flat and
/// inside the history's [min, max]; always finite and of the asked length.
std::string CheckForecast(const Op& op, const JValue& result);

/// The acked series length equals the benchmark's own running count.
std::string CheckAppend(const Op& op, const JValue& result);

/// Staging statements answer "OK.".
std::string CheckStage(const JValue& result);

/// TS_FORECAST_BY: groups x horizon rows, groups sorted, steps 1..H,
/// lower <= point <= upper, and naive points equal each group's last value.
std::string CheckSqlForecast(const Op& op, const JValue& result);

/// Distinct registered methods with finite, non-increasing scores.
std::string CheckRecommend(const Op& op, const JValue& result,
                           const std::set<std::string>& registered);

/// A finished backtest job: done == total == origins, the origin ladder of
/// the known series length, and naive per-origin MAE equal to the
/// benchmark's own computation.
std::string CheckBacktest(const Op& op, const JValue& status);

/// A finished evaluate job: records = methods x datasets, all of them ok.
std::string CheckEvaluate(const Op& op, const JValue& status);

/// Two result tables (arrays of row arrays) hold the same rows in order;
/// reals compare to 1e-9 relative.
std::string CompareRows(const JValue& a, const JValue& b);

/// Rows of (metric, value) from the results table: every value finite and
/// non-negative.
std::string CheckMetricRows(const JValue& rows);

/// \brief Remembers the first answer to each repeatable request line (its
/// id stripped) and reports any later answer that differs in a single bit.
class RepeatRegistry {
 public:
  std::string Check(const std::string& line, const JValue& values);

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<double>> first_;
};

}  // namespace perfbench
