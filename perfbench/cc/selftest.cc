/// Self-tests of the benchmark itself (--self-test): every output check
/// must reject a deliberately wrong answer and accept the right one, and
/// the request streams must be byte-identical for one seed and differ for
/// another.

#include <iostream>
#include <string>
#include <vector>

#include "checks.h"
#include "layers.h"
#include "minijson.h"
#include "stream.h"

namespace perfbench {

namespace {

JValue Parse(const std::string& text) {
  JValue v;
  std::string error;
  if (!ParseJson(text, &v, &error)) std::cerr << "self-test: bad fixture " << text << "\n";
  return v;
}

struct Runner {
  int failures = 0;
  int passed = 0;

  /// \p verdict is a check's result; \p should_pass says whether it must be "".
  void Expect(const std::string& name, const std::string& verdict, bool should_pass) {
    const bool ok = verdict.empty() == should_pass;
    (ok ? passed : failures)++;
    std::cerr << (ok ? "ok   " : "FAIL ") << name
              << (verdict.empty() ? "" : " [" + verdict + "]") << "\n";
  }
};

std::vector<SuiteSeries> TinySuite() {
  std::vector<SuiteSeries> suite;
  const char* domains[] = {"banking", "economic", "electricity", "energy", "environment",
                           "health", "nature", "stock", "traffic", "web"};
  for (const char* d : domains) {
    for (int i = 0; i < 2; ++i) {
      SuiteSeries s{std::string(d) + "_u" + std::to_string(i), true, {}};
      for (int t = 0; t < 300; ++t) s.values.push_back(10.0 + 0.01 * t + (t % 7));
      suite.push_back(s);
    }
  }
  suite.push_back({"stock_mv1", false, std::vector<double>(300, 1.0)});
  return suite;
}

}  // namespace

int RunSelfTest() {
  Runner r;
  const std::vector<double> series = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};

  // Forecasts.
  Op naive;
  naive.kind = Kind::kForecastHit;
  naive.method = "naive";
  naive.horizon = 3;
  naive.series = &series;
  naive.length = series.size();
  r.Expect("naive forecast accepted", CheckForecast(naive, Parse(R"({"values": [3, 3, 3]})")), true);
  r.Expect("naive forecast off by one value rejected",
           CheckForecast(naive, Parse(R"({"values": [3, 4, 3]})")), false);
  r.Expect("short forecast rejected", CheckForecast(naive, Parse(R"({"values": [3, 3]})")), false);
  Op mean = naive;
  mean.method = "mean";
  r.Expect("mean forecast accepted", CheckForecast(mean, Parse(R"({"values": [3.9, 3.9, 3.9]})")), true);
  r.Expect("wrong mean rejected", CheckForecast(mean, Parse(R"({"values": [3.8, 3.8, 3.8]})")), false);
  Op drift = naive;
  drift.method = "drift";
  r.Expect("drift forecast accepted", CheckForecast(drift, Parse(R"({"values": [3, 3, 3]})")), true);
  r.Expect("drift off the line rejected",
           CheckForecast(drift, Parse(R"({"values": [3, 3.1, 3]})")), false);
  Op ses = naive;
  ses.method = "ses";
  r.Expect("ses outside history range rejected",
           CheckForecast(ses, Parse(R"({"values": [9.5, 9.5, 9.5]})")), false);

  // A stale forecast after an append: the program answers from the series
  // as it was before the append.
  std::vector<double> grown = series;
  grown.push_back(7.5);
  Op fresh = naive;
  fresh.kind = Kind::kForecastFresh;
  fresh.series = &grown;
  fresh.length = grown.size();
  r.Expect("fresh forecast accepted", CheckForecast(fresh, Parse(R"({"values": [7.5, 7.5, 7.5]})")), true);
  r.Expect("stale forecast after an append rejected",
           CheckForecast(fresh, Parse(R"({"values": [3, 3, 3]})")), false);

  // Appends.
  Op append;
  append.kind = Kind::kAppend;
  append.length = 11;
  r.Expect("append length accepted", CheckAppend(append, Parse(R"({"length": 11})")), true);
  r.Expect("append length mismatch rejected", CheckAppend(append, Parse(R"({"length": 10})")), false);

  // TS_FORECAST_BY.
  Op by;
  by.kind = Kind::kSqlForecast;
  by.method = "naive";
  by.horizon = 2;
  by.groups = {"a", "b", "c"};
  by.group_last = {1.5, 2.5, 3.5};
  const std::string good = R"({"rows": [["a", 1, 1.5, 1, 2], ["a", 2, 1.5, 1, 2],
      ["b", 1, 2.5, 2, 3], ["b", 2, 2.5, 2, 3], ["c", 1, 3.5, 3, 4], ["c", 2, 3.5, 3, 4]]})";
  r.Expect("TS_FORECAST_BY accepted", CheckSqlForecast(by, Parse(good)), true);
  r.Expect("TS_FORECAST_BY missing group rejected",
           CheckSqlForecast(by, Parse(R"({"rows": [["a", 1, 1.5, 1, 2], ["a", 2, 1.5, 1, 2],
               ["c", 1, 3.5, 3, 4], ["c", 2, 3.5, 3, 4]]})")),
           false);
  r.Expect("TS_FORECAST_BY lower > upper rejected",
           CheckSqlForecast(by, Parse(R"({"rows": [["a", 1, 1.5, 2, 1], ["a", 2, 1.5, 1, 2],
               ["b", 1, 2.5, 2, 3], ["b", 2, 2.5, 2, 3], ["c", 1, 3.5, 3, 4], ["c", 2, 3.5, 3, 4]]})")),
           false);
  r.Expect("TS_FORECAST_BY unsorted groups rejected",
           CheckSqlForecast(by, Parse(R"({"rows": [["b", 1, 2.5, 2, 3], ["b", 2, 2.5, 2, 3],
               ["a", 1, 1.5, 1, 2], ["a", 2, 1.5, 1, 2], ["c", 1, 3.5, 3, 4], ["c", 2, 3.5, 3, 4]]})")),
           false);
  r.Expect("TS_FORECAST_BY naive point != last staged rejected",
           CheckSqlForecast(by, Parse(R"({"rows": [["a", 1, 1.4, 1, 2], ["a", 2, 1.5, 1, 2],
               ["b", 1, 2.5, 2, 3], ["b", 2, 2.5, 2, 3], ["c", 1, 3.5, 3, 4], ["c", 2, 3.5, 3, 4]]})")),
           false);

  // Recommend.
  Op rec;
  rec.kind = Kind::kRecommend;
  rec.k = 3;
  const std::set<std::string> registered = {"theta", "naive", "ses"};
  r.Expect("recommend accepted",
           CheckRecommend(rec, Parse(R"({"recommendations": [{"method": "theta", "score": 0.5},
               {"method": "ses", "score": 0.3}]})"), registered),
           true);
  r.Expect("recommend ascending scores rejected",
           CheckRecommend(rec, Parse(R"({"recommendations": [{"method": "theta", "score": 0.1},
               {"method": "ses", "score": 0.3}]})"), registered),
           false);
  r.Expect("recommend duplicate method rejected",
           CheckRecommend(rec, Parse(R"({"recommendations": [{"method": "ses", "score": 0.5},
               {"method": "ses", "score": 0.3}]})"), registered),
           false);
  r.Expect("recommend unregistered method rejected",
           CheckRecommend(rec, Parse(R"({"recommendations": [{"method": "oracle", "score": 0.5}]})"),
                          registered),
           false);

  // Backtest: naive over origins 6 and 8 of a 10-value series, horizon 2.
  Op bt;
  bt.kind = Kind::kBacktest;
  bt.series = &series;
  bt.length = series.size();
  bt.origins = 2;
  bt.horizon = 2;
  // origin 6: last=9, actual 2,6 -> MAE (7+3)/2 = 5; origin 8: last=6, actual 5,3 -> 2.
  const std::string bt_good = R"({"state": "done", "done": 2, "total": 2, "result": {"origins": [
      {"origin": 6, "metrics": {"mae": 5}}, {"origin": 8, "metrics": {"mae": 2}}]}})";
  r.Expect("backtest accepted", CheckBacktest(bt, Parse(bt_good)), true);
  r.Expect("backtest wrong MAE rejected",
           CheckBacktest(bt, Parse(R"({"state": "done", "done": 2, "total": 2, "result": {"origins": [
               {"origin": 6, "metrics": {"mae": 5}}, {"origin": 8, "metrics": {"mae": 2.5}}]}})")),
           false);
  r.Expect("backtest done != total rejected",
           CheckBacktest(bt, Parse(R"({"state": "done", "done": 1, "total": 2, "result": {"origins": [
               {"origin": 6, "metrics": {"mae": 5}}, {"origin": 8, "metrics": {"mae": 2}}]}})")),
           false);

  // Evaluate.
  Op ev;
  ev.kind = Kind::kEvaluate;
  ev.expect_records = 46;
  r.Expect("evaluate accepted",
           CheckEvaluate(ev, Parse(R"({"state": "done", "result": {"records": 46, "ok": 46}})")), true);
  r.Expect("evaluate with fewer records than methods x datasets rejected",
           CheckEvaluate(ev, Parse(R"({"state": "done", "result": {"records": 45, "ok": 45}})")), false);
  r.Expect("stored metric below zero rejected",
           CheckMetricRows(Parse(R"([["mae", 1.5], ["rmse", -0.1]])")), false);

  // Ask vs hand-written sql, and repeated requests.
  r.Expect("equal rows accepted", CompareRows(Parse(R"([["theta", 1.5]])"), Parse(R"([["theta", 1.5]])")),
           true);
  r.Expect("different rows rejected",
           CompareRows(Parse(R"([["theta", 1.5]])"), Parse(R"([["ses", 1.5]])")), false);
  RepeatRegistry repeats;
  const std::string line = "{\"id\": 1, \"endpoint\": \"forecast\", \"params\": {}}\n";
  const std::string again = "{\"id\": 2, \"endpoint\": \"forecast\", \"params\": {}}\n";
  r.Expect("first answer recorded", repeats.Check(line, Parse("[1.0, 2.0]")), true);
  r.Expect("identical repeat accepted", repeats.Check(again, Parse("[1.0, 2.0]")), true);
  r.Expect("repeat differing in the last bit rejected",
           repeats.Check(again, Parse("[1.0, 2.0000000000000004]")), false);

  // Streams: one seed, one byte sequence; another seed, another.
  const auto suite = TinySuite();
  for (const std::string& w : WorkloadNames()) {
    const uint64_t a = StreamDigest(*BuildWorkload(w, 7, 2, suite));
    const uint64_t b = StreamDigest(*BuildWorkload(w, 7, 2, suite));
    const uint64_t c = StreamDigest(*BuildWorkload(w, 8, 2, suite));
    r.Expect(w + " stream is identical for the same seed", a == b ? "" : "digests differ", true);
    r.Expect(w + " stream differs for another seed", a != c ? "" : "same digest", true);
  }

  std::cerr << "self-test: " << r.passed << " passed, " << r.failures << " failed\n";
  return r.failures;
}

}  // namespace perfbench
