#include "stream.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "minijson.h"

namespace perfbench {

namespace {

// ---- Sizing. Counts scale with --seconds and never with the speed of the
// program, so growth that depends on counts (cache fill, Q&A history,
// appended series, staged tables) is the same on every commit. No measured
// EasyTime traffic exists to take shares or rates from; perfbench/README.md
// ("Where the numbers come from") lists which of the values below follow
// from the workload definitions and which are assumptions to replace once
// such traffic exists.

// serve_mixed / routed_mixed: closed-loop units per second of --seconds
// (assumption: about 3 s of closed loop at the ~1000 op/s this mix reaches
// on the 4-core reference host), open-loop arrival rate (assumption: ~15%
// of that capacity, so the open loop sees service time rather than a
// queue) and the open phase's share of --seconds. 150/s x 0.8 x 10 s gives
// ~1000 stored-dataset forecasts, so at least 10 samples lie beyond p99.
constexpr size_t kServeClosedPerSecond = 300;
constexpr double kServeOpenRate = 150.0;
// live_ingest: the same reasoning at the ~2000 op/s it reaches there.
constexpr size_t kIngestClosedPerSecond = 250;
constexpr double kIngestOpenRate = 200.0;
constexpr double kOpenShare = 0.8;

// 20 univariate datasets x 4 methods x 1 horizon = 80 popular keys, which
// stay resident in the server's 256-entry result cache next to the
// entries fresh inline requests insert.
constexpr int kHitHorizons[] = {24};
const char* const kHitMethods[] = {"naive", "mean", "drift", "ses"};
const char* const kMissMethods[] = {"naive", "mean", "drift", "ses", "theta"};
const char* const kFreshMethods[] = {"naive", "mean", "drift"};
const char* const kSqlModels[] = {"naive", "naive", "ses", "theta"};
const char* const kDomains[] = {"banking", "economic",    "electricity",
                                "energy",  "environment", "health",
                                "nature",  "stock",       "traffic", "web"};
const char* const kMetrics[] = {"mae", "rmse", "smape", "mase"};
// Methods the random question parameters draw from. seasonal_naive is not
// among them: its name alone makes the translator add a seasonality filter
// (a known fault), which the fixed question below shows on every seed.
const char* const kKbMethods[] = {"naive", "drift", "ses", "holt",
                                  "holt_winters_add", "theta", "ar",
                                  "lag_linear", "dlinear", "knn", "gbdt",
                                  "mlp"};
// One evaluate job per method family, in a seeded order.
const std::vector<std::vector<std::string>> kEvalJobs = {
    {"naive", "mean", "drift", "ses", "theta"},
    {"ar", "arima"},
    {"gbdt", "knn", "dlinear"},
    {"mlp"},
    {"gru"},
    {"tcn"},
};

constexpr size_t kLiveDatasets = 8;
constexpr size_t kLiveSeedValues = 64;  // warm-up append per live dataset
constexpr size_t kBacktestOrigins = 8;
constexpr size_t kBacktestHorizon = 6;

template <typename T, size_t N>
constexpr size_t Len(const T (&)[N]) {
  return N;
}

template <typename T>
void Shuffle(std::vector<T>* v, SeededRng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

/// Kinds of units, with exact counts: the shares are the same on every
/// seed, only the order and contents change.
std::vector<int> MixedOrder(const std::vector<std::pair<int, double>>& shares,
                            size_t total, SeededRng* rng) {
  std::vector<int> order;
  size_t assigned = 0;
  for (size_t i = 0; i < shares.size(); ++i) {
    size_t n = i + 1 == shares.size()
                   ? total - assigned
                   : static_cast<size_t>(std::llround(shares[i].second *
                                                      static_cast<double>(total)));
    n = std::min(n, total - assigned);
    order.insert(order.end(), n, shares[i].first);
    assigned += n;
  }
  Shuffle(&order, rng);
  return order;
}

/// \p n lengths spread evenly over [lo, hi], in a seeded order.
std::vector<size_t> SpreadLengths(size_t n, size_t lo, size_t hi, SeededRng* rng) {
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = lo + (n > 1 ? i * (hi - lo) / (n - 1) : (hi - lo) / 2);
  }
  Shuffle(&out, rng);
  return out;
}

std::vector<double> Arrivals(size_t n, double rate, SeededRng* rng) {
  std::vector<double> due(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += rng->Exponential(rate);
    due[i] = t;
  }
  return due;
}

/// A synthetic inline series: level + trend + season + random walk + noise.
std::vector<double> InlineSeries(size_t length, SeededRng* rng) {
  const double level = 20.0 + 80.0 * rng->Uniform();
  const double trend = (rng->Uniform() - 0.5) * 0.05;
  const double period = 4.0 + static_cast<double>(rng->Below(45));
  const double amp = 10.0 * rng->Uniform();
  const double noise = 0.2 + rng->Uniform();
  std::vector<double> v(length);
  double walk = 0.0;
  for (size_t t = 0; t < length; ++t) {
    walk += 0.3 * rng->Normal();
    v[t] = level + trend * static_cast<double>(t) +
           amp * std::sin(2.0 * M_PI * static_cast<double>(t) / period) +
           walk + noise * rng->Normal();
  }
  return v;
}

class Builder {
 public:
  Builder(WorkloadSpec* spec, uint64_t seed) : spec_(spec), seed_(seed) {}

  std::string Begin(const char* endpoint) {
    std::string line = "{\"id\": " + std::to_string(next_id_++) +
                       ", \"endpoint\": \"" + endpoint + "\", \"params\": {";
    return line;
  }
  static void End(std::string* line) { line->append("}}\n"); }

  static void AppendValues(std::string* line, const double* v, size_t n) {
    line->push_back('[');
    for (size_t i = 0; i < n; ++i) {
      if (i) line->append(", ");
      AppendDouble(line, v[i]);
    }
    line->push_back(']');
  }

  Op StoredForecast(Kind kind, const std::string& dataset,
                    const std::vector<double>* series, size_t length,
                    const std::string& method, int horizon) {
    Op op;
    op.kind = kind;
    op.line = Begin("forecast");
    op.line += "\"dataset\": ";
    AppendQuoted(&op.line, dataset);
    op.line += ", \"method\": \"" + method +
               "\", \"horizon\": " + std::to_string(horizon);
    End(&op.line);
    op.method = method;
    op.horizon = static_cast<size_t>(horizon);
    op.series = series;
    op.length = length;
    op.repeatable = kind == Kind::kForecastHit;
    return op;
  }

  Op InlineForecast(size_t length, const char* method, int horizon,
                    SeededRng* rng) {
    spec_->series_store.push_back(InlineSeries(length, rng));
    const std::vector<double>& v = spec_->series_store.back();
    Op op;
    op.kind = Kind::kForecastMiss;
    op.line = Begin("forecast");
    op.line += "\"values\": ";
    AppendValues(&op.line, v.data(), v.size());
    op.line += std::string(", \"method\": \"") + method +
               "\", \"horizon\": " + std::to_string(horizon);
    End(&op.line);
    op.method = method;
    op.horizon = static_cast<size_t>(horizon);
    op.series = &v;
    op.length = v.size();
    return op;
  }

  Op Recommend(size_t length, SeededRng* rng) {
    std::vector<double> v = InlineSeries(length, rng);
    Op op;
    op.kind = Kind::kRecommend;
    op.k = 3;
    op.line = Begin("recommend");
    op.line += "\"values\": ";
    AppendValues(&op.line, v.data(), v.size());
    op.line += ", \"k\": 3";
    End(&op.line);
    return op;
  }

  Op Ask(int question) {
    Op op;
    op.kind = Kind::kAsk;
    op.question = question;
    op.line = Begin("ask");
    op.line += "\"question\": ";
    AppendQuoted(&op.line, spec_->questions[static_cast<size_t>(question)].text);
    End(&op.line);
    return op;
  }

  Op Sql(Kind kind, const std::string& query) {
    Op op;
    op.kind = kind;
    op.line = Begin("sql");
    op.line += "\"query\": ";
    AppendQuoted(&op.line, query);
    End(&op.line);
    return op;
  }

  /// CREATE + INSERT + TS_FORECAST_BY over a fresh table of G groups.
  Unit SqlSession(SeededRng* rng) {
    const std::string table = "st" + std::to_string(seed_ % 100000) + "_" +
                              std::to_string(tables_++);
    const size_t groups = 2 + rng->Below(5);
    const size_t rows = 24 + rng->Below(25);
    const int horizon = 4 + static_cast<int>(rng->Below(9));
    const char* model = kSqlModels[rng->Below(Len(kSqlModels))];
    std::vector<std::string> names;
    while (names.size() < groups) {
      std::string g;
      for (int i = 0; i < 4; ++i) g.push_back(static_cast<char>('a' + rng->Below(26)));
      if (std::find(names.begin(), names.end(), g) == names.end()) {
        names.push_back(g);
      }
    }
    std::string insert = "INSERT INTO " + table + " VALUES ";
    std::vector<double> last(groups);
    std::vector<std::vector<double>> series(groups);
    for (size_t g = 0; g < groups; ++g) series[g] = InlineSeries(rows, rng);
    bool first = true;
    // Interleaved groups, ascending time within each group.
    for (size_t t = 0; t < rows; ++t) {
      for (size_t g = 0; g < groups; ++g) {
        if (!first) insert += ", ";
        first = false;
        insert += "('" + names[g] + "', " + std::to_string(t) + ", ";
        AppendDouble(&insert, series[g][t]);
        insert += ")";
        last[g] = series[g][t];
      }
    }
    Unit unit;
    unit.ops.push_back(Sql(Kind::kSqlStage, "CREATE TABLE " + table +
                                                " (g TEXT, ts INTEGER, v REAL)"));
    unit.ops.push_back(Sql(Kind::kSqlStage, insert));
    Op fc = Sql(Kind::kSqlForecast,
                "SELECT g, forecast_step, point_forecast, lower, upper FROM "
                "TS_FORECAST_BY(" + table + ", g, ts, v, model := '" + model +
                    "', horizon := " + std::to_string(horizon) + ")");
    fc.method = model;
    fc.horizon = static_cast<size_t>(horizon);
    std::vector<size_t> idx(groups);
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return names[a] < names[b]; });
    for (size_t i : idx) {
      fc.groups.push_back(names[i]);
      fc.group_last.push_back(last[i]);
    }
    unit.ops.push_back(std::move(fc));
    return unit;
  }

  Op Append(const std::string& dataset, const std::vector<double>* series,
            size_t start, size_t count) {
    Op op;
    op.kind = Kind::kAppend;
    op.line = Begin("append");
    op.line += "\"dataset\": ";
    AppendQuoted(&op.line, dataset);
    op.line += ", \"values\": ";
    AppendValues(&op.line, series->data() + start, count);
    op.line += ", \"start\": " + std::to_string(start);
    End(&op.line);
    op.series = series;
    op.length = start + count;
    return op;
  }

  Op Backtest(const std::string& dataset, const std::vector<double>* series,
              size_t length) {
    Op op;
    op.kind = Kind::kBacktest;
    op.line = Begin("backtest");
    op.line += "\"dataset\": ";
    AppendQuoted(&op.line, dataset);
    op.line += ", \"method\": \"naive\", \"origins\": " +
               std::to_string(kBacktestOrigins) +
               ", \"horizon\": " + std::to_string(kBacktestHorizon);
    End(&op.line);
    op.method = "naive";
    op.series = series;
    op.length = length;
    op.origins = kBacktestOrigins;
    op.horizon = kBacktestHorizon;
    return op;
  }

  Op Evaluate(const std::vector<std::string>& methods,
              const std::vector<std::string>& datasets) {
    Op op;
    op.kind = Kind::kEvaluate;
    op.line = Begin("evaluate");
    op.line += "\"methods\": [";
    for (size_t i = 0; i < methods.size(); ++i) {
      if (i) op.line += ", ";
      AppendQuoted(&op.line, methods[i]);
    }
    op.line += "], \"datasets\": [";
    for (size_t i = 0; i < datasets.size(); ++i) {
      if (i) op.line += ", ";
      AppendQuoted(&op.line, datasets[i]);
    }
    op.line += "]";
    End(&op.line);
    op.expect_records = methods.size() * datasets.size();
    return op;
  }

 private:
  WorkloadSpec* spec_;
  uint64_t seed_;
  uint64_t next_id_ = 1;
  size_t tables_ = 0;
};

Unit Single(Op op, int pool = 0) {
  Unit u;
  u.ops.push_back(std::move(op));
  u.pool = pool;
  return u;
}

/// The question set: every documented shape, join-heavy rankings included.
std::vector<Question> MakeQuestions(SeededRng* rng) {
  std::vector<Question> qs;
  auto metric = [&]() { return std::string(kMetrics[rng->Below(Len(kMetrics))]); };
  auto domain = [&]() { return std::string(kDomains[rng->Below(Len(kDomains))]); };
  const std::string join =
      " FROM results r JOIN datasets d ON r.dataset = d.name WHERE r.metric = '";
  for (int i = 0; i < 3; ++i) {
    const std::string m = metric();
    const size_t k = 3 + rng->Below(6);
    qs.push_back({"What are the top-" + std::to_string(k) + " methods (ordered by " +
                      m + ") for long term forecasting on all multivariate "
                          "datasets with trends?",
                  "SELECT r.method, AVG(r.value) AS score" + join + m +
                      "' AND r.horizon >= 24 AND d.multivariate = 1 AND "
                      "d.trend > 0.6 GROUP BY r.method ORDER BY score ASC "
                      "LIMIT " + std::to_string(k)});
  }
  for (int i = 0; i < 3; ++i) {
    const std::string m = metric();
    const std::string d = domain();
    const size_t k = 3 + rng->Below(6);
    qs.push_back({"What are the top-" + std::to_string(k) + " methods by " + m +
                      " on " + d + " datasets?",
                  "SELECT r.method, AVG(r.value) AS score" + join + m +
                      "' AND d.domain = '" + d +
                      "' GROUP BY r.method ORDER BY score ASC LIMIT " +
                      std::to_string(k)});
  }
  for (int i = 0; i < 2; ++i) {
    const std::string m = metric();
    const std::string d = domain();
    const std::string meth = kKbMethods[rng->Below(Len(kKbMethods))];
    qs.push_back({"What is the average " + m + " of " + meth + " on " + d +
                      " datasets?",
                  "SELECT r.method, AVG(r.value) AS score, COUNT(*) AS n" + join +
                      m + "' AND d.domain = '" + d + "' AND r.method = '" +
                      meth + "' GROUP BY r.method"});
  }
  {
    const std::string m = metric();
    const size_t a = rng->Below(Len(kKbMethods));
    size_t b = rng->Below(Len(kKbMethods) - 1);
    if (b >= a) ++b;
    qs.push_back({std::string("Is ") + kKbMethods[a] + " or " + kKbMethods[b] +
                      " better on datasets with trends (by " + m + ")?",
                  "SELECT r.method, AVG(r.value) AS score" + join + m +
                      "' AND d.trend > 0.6 AND r.method IN ('" + kKbMethods[a] +
                      "', '" + kKbMethods[b] +
                      "') GROUP BY r.method ORDER BY score ASC"});
  }
  // Seed-independent, so its failed asks are the same share on every run.
  // The translator reads the method name as a seasonality filter.
  qs.push_back({"Is seasonal_naive or theta better on datasets with trends (by mae)?",
                "SELECT r.method, AVG(r.value) AS score" + join +
                    "mae' AND d.trend > 0.6 AND r.method IN ('seasonal_naive', "
                    "'theta') GROUP BY r.method ORDER BY score ASC",
                "d.seasonality > "});
  qs.push_back({"How many datasets have strong seasonality?",
                "SELECT COUNT(*) AS n FROM datasets WHERE seasonality > 0.64"});
  qs.push_back({"List all multivariate datasets with shifting.",
                "SELECT name, domain, length FROM datasets WHERE multivariate = 1 "
                "AND shifting > 0.5 ORDER BY name"});
  qs.push_back({"Which domains are covered?",
                "SELECT domain, COUNT(*) AS n FROM datasets GROUP BY domain "
                "ORDER BY n DESC"});
  {
    const std::string d = domain();
    qs.push_back({"Which datasets with trends belong to the " + d + " domain?",
                  "SELECT name, domain, length FROM datasets WHERE trend > 0.6 "
                  "AND domain = '" + d + "' ORDER BY name"});
  }
  return qs;
}

/// Popular forecast keys over the stored univariate datasets, with a
/// Zipf(1.1) popularity whose ranking the seed shuffles.
struct HotKeys {
  struct Key {
    size_t dataset;
    const char* method;
    int horizon;
  };
  std::vector<Key> keys;
  std::vector<double> cdf;

  HotKeys(const std::vector<size_t>& datasets, SeededRng* rng) {
    for (size_t d : datasets) {
      for (const char* m : kHitMethods) {
        for (int h : kHitHorizons) keys.push_back({d, m, h});
      }
    }
    Shuffle(&keys, rng);
    double sum = 0.0;
    for (size_t i = 0; i < keys.size(); ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
      cdf.push_back(sum);
    }
    for (double& c : cdf) c /= sum;
  }

  const Key& Draw(SeededRng* rng) const {
    const double u = rng->Uniform();
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return keys[std::min(i, keys.size() - 1)];
  }
};

enum ServeKind { kSHit, kSMiss, kSRec, kSAsk, kSSql };

void BuildServe(WorkloadSpec* spec, uint64_t seed, int seconds,
                const std::vector<SuiteSeries>& suite, bool with_sql) {
  SeededRng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  Builder b(spec, seed);
  spec->questions = MakeQuestions(&rng);
  std::vector<size_t> uni;
  for (size_t i = 0; i < suite.size(); ++i) {
    if (suite[i].univariate) uni.push_back(i);
  }
  HotKeys hot(uni, &rng);
  // Every question shape is asked equally often on every seed.
  size_t asked = 0;
  auto NextQuestion = [&]() {
    return static_cast<int>(asked++ % spec->questions.size());
  };
  auto hit = [&](const HotKeys::Key& k) {
    return b.StoredForecast(Kind::kForecastHit, suite[k.dataset].name,
                            &suite[k.dataset].values,
                            suite[k.dataset].values.size(), k.method, k.horizon);
  };
  for (const auto& k : hot.keys) spec->warmup.units.push_back(Single(hit(k)));

  // The sql share is drawn from the stream either way, so routed_mixed
  // sees exactly serve_mixed's other requests for the same seed. Given by
  // the definition: read-heavy, mostly cache hits. Assumed: the exact
  // shares (83% cached forecasts, 8% inline forecasts, 5% recommend, 1%
  // ask, 3% SQL sessions) and the Zipf(1.1) key popularity.
  const std::vector<std::pair<int, double>> shares = {
      {kSMiss, 0.08}, {kSRec, 0.05}, {kSAsk, 0.01}, {kSSql, 0.03}, {kSHit, 1.0}};
  // In the open loop two connections carry the stored-dataset forecasts
  // and two the heavier interactive requests, so a forecast's latency is
  // the server's and not a wait for a client connection behind an ask.
  auto fill = [&](Phase* phase, size_t total) {
    const std::vector<int> order = MixedOrder(shares, total, &rng);
    // Inline series lengths 100-2000, evenly spread over each kind's
    // requests and shuffled, so every seed asks the same total work of them.
    std::vector<size_t> miss_len = SpreadLengths(
        std::count(order.begin(), order.end(), kSMiss), 100, 2000, &rng);
    std::vector<size_t> rec_len = SpreadLengths(
        std::count(order.begin(), order.end(), kSRec), 100, 2000, &rng);
    for (int kind : order) {
      switch (kind) {
        case kSHit:
          phase->units.push_back(Single(hit(hot.Draw(&rng))));
          break;
        case kSMiss: {
          const size_t len = miss_len.back();
          miss_len.pop_back();
          const char* m = kMissMethods[rng.Below(Len(kMissMethods))];
          phase->units.push_back(
              Single(b.InlineForecast(len, m, 6 + static_cast<int>(rng.Below(19)), &rng)));
          break;
        }
        case kSRec:
          phase->units.push_back(Single(b.Recommend(rec_len.back(), &rng)));
          rec_len.pop_back();
          break;
        case kSAsk:
          phase->units.push_back(Single(b.Ask(NextQuestion())));
          break;
        case kSSql: {
          Unit u = b.SqlSession(&rng);
          if (with_sql) phase->units.push_back(std::move(u));
          break;
        }
      }
    }
  };
  const size_t s = static_cast<size_t>(seconds);
  fill(&spec->closed, kServeClosedPerSecond * s);
  const size_t open_units = static_cast<size_t>(
      std::llround(kServeOpenRate * kOpenShare * static_cast<double>(seconds)));
  fill(&spec->open, open_units);
  spec->open.conn_pool = {0, 0, 1, 1};
  for (Unit& u : spec->open.units) {
    u.pool = u.ops[0].kind == Kind::kForecastHit ? 0 : 1;
  }
  spec->open_rate = kServeOpenRate;
  // Arrival times come from a stream of their own.
  SeededRng arrivals(seed * 0xD1B54A32D192ED03ull + 5);
  spec->open.due_s = Arrivals(spec->open.units.size(), kServeOpenRate, &arrivals);
}

enum IngestKind { kIProduce, kIRead, kIBacktest };

void BuildIngest(WorkloadSpec* spec, uint64_t seed, int seconds,
                 const std::vector<SuiteSeries>& suite) {
  SeededRng rng(seed * 0x9E3779B97F4A7C15ull + 23);
  Builder b(spec, seed);
  std::vector<size_t> uni;
  for (size_t i = 0; i < suite.size(); ++i) {
    if (suite[i].univariate) uni.push_back(i);
  }
  Shuffle(&uni, &rng);
  const std::vector<size_t> live(uni.begin(), uni.begin() + kLiveDatasets);
  const std::vector<size_t> still(uni.begin() + kLiveDatasets, uni.end());
  HotKeys hot(still, &rng);

  const size_t s = static_cast<size_t>(seconds);
  const size_t closed_units = kIngestClosedPerSecond * s;
  const size_t open_units = static_cast<size_t>(
      std::llround(kIngestOpenRate * kOpenShare * static_cast<double>(seconds)));
  // Assumed shares: 62% append-then-forecast, 35% cached reads, 3% backtest
  // jobs; the definition asks only for writes beside reads.
  const std::vector<std::pair<int, double>> shares = {
      {kIBacktest, 0.03}, {kIRead, 0.35}, {kIProduce, 1.0}};
  const std::vector<int> closed_order = MixedOrder(shares, closed_units, &rng);
  const std::vector<int> open_order = MixedOrder(shares, open_units, &rng);

  // Each live dataset's full future: its stored values, then every value
  // any phase will append, continuing the series' own random walk.
  struct Live {
    size_t suite_index;
    std::vector<double>* series;
    size_t length;  // what the program holds so far, in stream order
    int key;
  };
  std::vector<Live> lives;
  const size_t max_append = 16;
  for (size_t i = 0; i < live.size(); ++i) {
    spec->series_store.push_back(suite[live[i]].values);
    std::vector<double>* full = &spec->series_store.back();
    lives.push_back({live[i], full, full->size(), static_cast<int>(i)});
  }
  // Warm-up: seed every live dataset with appended values, so backtest
  // test windows lie inside appended data; then fill the cache.
  auto grow = [&](Live& l, size_t count) {
    std::vector<double>& v = *l.series;
    double step = 0.0;
    const size_t n0 = suite[l.suite_index].values.size();
    for (size_t t = 1; t < n0; ++t) step += std::fabs(v[t] - v[t - 1]);
    step = std::max(1e-3, step / static_cast<double>(n0 - 1));
    while (v.size() < l.length + count) v.push_back(v.back() + step * rng.Normal());
  };
  for (Live& l : lives) {
    grow(l, kLiveSeedValues);
    spec->warmup.units.push_back(Single(
        b.Append(suite[l.suite_index].name, l.series, l.length, kLiveSeedValues)));
    spec->warmup.units.back().order_key = l.key;
    l.length += kLiveSeedValues;
  }
  for (const auto& k : hot.keys) {
    spec->warmup.units.push_back(Single(b.StoredForecast(
        Kind::kForecastHit, suite[k.dataset].name, &suite[k.dataset].values,
        suite[k.dataset].values.size(), k.method, k.horizon)));
  }

  auto fill = [&](Phase* phase, const std::vector<int>& order) {
    for (int kind : order) {
      if (kind == kIRead) {
        const auto& k = hot.Draw(&rng);
        phase->units.push_back(Single(b.StoredForecast(
            Kind::kForecastHit, suite[k.dataset].name, &suite[k.dataset].values,
            suite[k.dataset].values.size(), k.method, k.horizon)));
        continue;
      }
      Live& l = lives[rng.Below(lives.size())];
      const std::string& name = suite[l.suite_index].name;
      Unit u;
      u.order_key = l.key;
      if (kind == kIBacktest) {
        u.ops.push_back(b.Backtest(name, l.series, l.length));
      } else {
        const size_t count = 4 + rng.Below(max_append - 3);
        grow(l, count);
        u.ops.push_back(b.Append(name, l.series, l.length, count));
        l.length += count;
        u.ops.push_back(b.StoredForecast(
            Kind::kForecastFresh, name, l.series, l.length,
            kFreshMethods[rng.Below(Len(kFreshMethods))], 12));
      }
      phase->units.push_back(std::move(u));
    }
  };
  fill(&spec->closed, closed_order);
  fill(&spec->open, open_order);
  // Every connection is a producer for two live datasets (their appends,
  // forecasts and backtests, in order) and a reader: up to four appends to
  // different datasets are in flight at once and share the append log's
  // group-commit fsyncs. The load generator runs each append that reaches
  // the log's compaction threshold alone (LoadGen, kAppendCompactEvery).
  for (Phase* phase : {&spec->warmup, &spec->closed, &spec->open}) {
    for (Unit& u : phase->units) u.pool = 0;
  }
  spec->open_rate = kIngestOpenRate;
  SeededRng arrivals(seed * 0xD1B54A32D192ED03ull + 7);
  spec->open.due_s = Arrivals(spec->open.units.size(), kIngestOpenRate, &arrivals);
}

void BuildEval(WorkloadSpec* spec, uint64_t seed, int seconds,
               const std::vector<SuiteSeries>& suite) {
  SeededRng rng(seed * 0x9E3779B97F4A7C15ull + 37);
  Builder b(spec, seed);
  std::vector<std::string> names;
  for (const auto& s : suite) names.push_back(s.name);
  // Whole rounds of one job per family, every job over every stored dataset
  // in repository order (the seed orders the jobs only: a seeded dataset
  // order moved the run's CPU by 10% between seeds). About 7 s of jobs per
  // round on the 4-core reference host.
  const size_t rounds = std::max<size_t>(1, static_cast<size_t>(seconds) / 5);
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<size_t> order(kEvalJobs.size());
    std::iota(order.begin(), order.end(), 0);
    Shuffle(&order, &rng);
    for (size_t j : order) {
      spec->closed.units.push_back(Single(b.Evaluate(kEvalJobs[j], names)));
    }
  }
}

}  // namespace

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SeededRng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

size_t SeededRng::Below(size_t n) {
  return n == 0 ? 0 : static_cast<size_t>(Next() % n);
}

double SeededRng::Normal() {
  // Box-Muller; one draw per call keeps the stream simple to reason about.
  double u1 = Uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * Uniform());
}

double SeededRng::Exponential(double rate) {
  return -std::log(1.0 - Uniform()) / rate;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kForecastHit: return "forecast_hit";
    case Kind::kForecastMiss: return "forecast_miss";
    case Kind::kForecastFresh: return "forecast_fresh";
    case Kind::kRecommend: return "recommend";
    case Kind::kAsk: return "ask";
    case Kind::kSqlStage: return "sql_stage";
    case Kind::kSqlForecast: return "sql_forecast";
    case Kind::kAppend: return "append";
    case Kind::kBacktest: return "backtest";
    case Kind::kEvaluate: return "evaluate";
    case Kind::kCount: break;
  }
  return "?";
}

const char* KindEndpoint(Kind kind) {
  switch (kind) {
    case Kind::kForecastHit:
    case Kind::kForecastMiss:
    case Kind::kForecastFresh: return "forecast";
    case Kind::kRecommend: return "recommend";
    case Kind::kAsk: return "ask";
    case Kind::kSqlStage:
    case Kind::kSqlForecast: return "sql";
    case Kind::kAppend: return "append";
    case Kind::kBacktest: return "backtest";
    case Kind::kEvaluate: return "evaluate";
    case Kind::kCount: break;
  }
  return "?";
}

bool IsForecast(Kind kind) {
  return kind == Kind::kForecastHit || kind == Kind::kForecastMiss ||
         kind == Kind::kForecastFresh;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "serve_mixed", "live_ingest", "one_click_eval", "routed_mixed"};
  return kNames;
}

std::unique_ptr<WorkloadSpec> BuildWorkload(
    const std::string& name, uint64_t seed, int seconds,
    const std::vector<SuiteSeries>& suite) {
  auto spec = std::make_unique<WorkloadSpec>();
  spec->name = name;
  if (name == "serve_mixed") {
    BuildServe(spec.get(), seed, seconds, suite, /*with_sql=*/true);
  } else if (name == "routed_mixed") {
    spec->routed = true;
    BuildServe(spec.get(), seed, seconds, suite, /*with_sql=*/false);
  } else if (name == "live_ingest") {
    BuildIngest(spec.get(), seed, seconds, suite);
  } else if (name == "one_click_eval") {
    spec->connections = 1;
    BuildEval(spec.get(), seed, seconds, suite);
  } else {
    return nullptr;
  }
  return spec;
}

uint64_t StreamDigest(const WorkloadSpec& spec) {
  uint64_t h = 1469598103934665603ull;
  for (const Phase* p : {&spec.warmup, &spec.closed, &spec.open}) {
    for (const Unit& u : p->units) {
      for (const Op& op : u.ops) {
        for (unsigned char c : op.line) {
          h ^= c;
          h *= 1099511628211ull;
        }
      }
    }
    for (double d : p->due_s) {
      h ^= static_cast<uint64_t>(d * 1e9);
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace perfbench
