#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <thread>

#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "cluster/worker.h"
#include "common/json.h"
#include "core/easytime.h"
#include "ensemble/ts2vec.h"
#include "eval/backtest.h"
#include "loadgen.h"
#include "methods/registry.h"
#include "nn/matrix.h"
#include "pipeline/runner.h"
#include "procs.h"
#include "qa/nl2sql.h"
#include "qa/qa_engine.h"
#include "serve/event_loop.h"
#include "serve/request.h"
#include "serve/server.h"
#include "sql/executor.h"
#include "sql/table.h"
#include "store/wal.h"
#include "tsdata/characteristics.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using easytime::core::EasyTime;

// The methods timed one by one: every family the workloads fit.
const char* const kMethods[] = {"naive", "mean",  "drift", "ses", "theta",
                                "ar",    "arima", "gbdt",  "knn", "dlinear",
                                "mlp",   "gru",   "tcn"};
const char* const kDeep[] = {"mlp", "gru", "tcn"};
const char* const kDomains[] = {"banking", "economic",    "electricity",
                                "energy",  "environment", "health",
                                "nature",  "stock",       "traffic", "web"};

struct Shape {
  const char* name;
  size_t m, k, n;
};
// GEMM shapes of the encoder (a dilated conv as T x (3*hidden) x hidden
// over a default-length series), the GRU's fused gates (batch x hidden x
// 3*hidden), and a large square one.
const Shape kShapes[] = {{"enc_512x72x24", 512, 72, 24},
                         {"gru_64x32x96", 64, 32, 96},
                         {"sq_256", 256, 256, 256}};

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double SinceMs(uint64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-6; }

/// Probes record one span per timed call; the metrics come from the spans'
/// durations, so the trace file explains every number.
class Prober {
 public:
  explicit Prober(SpanLog* log) : log_(log), buf_(log->Buffer()) {}

  /// Times \p fn once as a span named \p name; returns milliseconds.
  double Time(const std::string& name, const std::function<void()>& fn) {
    const uint64_t t0 = NowNs();
    {
      ScopedSpan s(log_, buf_, name, parent_);
      fn();
    }
    return SinceMs(t0);
  }

  /// Median milliseconds over \p reps calls.
  double MedianMs(const std::string& name, size_t reps,
                  const std::function<void(size_t)>& fn) {
    std::vector<double> ms;
    for (size_t i = 0; i < reps; ++i) ms.push_back(Time(name, [&]() { fn(i); }));
    return Median(ms);
  }

  void SetParent(uint64_t p) { parent_ = p; }
  std::vector<Span>* buf() { return buf_; }

 private:
  SpanLog* log_;
  std::vector<Span>* buf_;
  uint64_t parent_ = 0;
};

/// Ops of a kind: from the workload's own stream when it has them, else
/// from the fallback workload built with the same seed.
std::vector<const Op*> OpsOf(const WorkloadSpec& spec, const WorkloadSpec& fallback,
                             Kind kind, size_t limit) {
  std::vector<const Op*> out;
  for (const WorkloadSpec* s : {&spec, &fallback}) {
    for (const Phase* p : {&s->warmup, &s->closed, &s->open}) {
      for (const Unit& u : p->units) {
        for (const Op& op : u.ops) {
          if (op.kind == kind && out.size() < limit) out.push_back(&op);
        }
      }
    }
    if (!out.empty()) break;
  }
  return out;
}

std::string WithoutNewline(const std::string& line) {
  return line.substr(0, line.size() - 1);
}

}  // namespace

std::vector<Metric> RunLayerProbes(const WorkloadSpec& spec,
                                   const std::vector<SuiteSeries>& suite,
                                   uint64_t seed, int seconds,
                                   const std::string& run_dir,
                                   const std::string& worker_binary,
                                   const ServedFacts& facts, SpanLog* spans) {
  std::vector<Metric> out;
  auto add = [&](const std::string& name, double value, const char* unit) {
    out.push_back({name, value, unit});
    std::cerr << "perfbench: " << name << " = " << value << " " << unit << "\n";
  };
  Prober pr(spans);
  const uint64_t root = spans->NewId();
  pr.SetParent(root);
  const uint64_t probes_t0 = NowNs();

  // Streams every probe may draw inputs from, for the same seed.
  auto preset = easytime::cluster::PresetOptions("default");
  auto serve_spec = BuildWorkload("serve_mixed", seed, seconds, suite);
  auto ingest_spec = BuildWorkload("live_ingest", seed, seconds, suite);

  // ---- Served-phase facts (measured from outside during the run).
  add("serve.cache_hit_ratio",
      facts.cache_lookups > 0 ? facts.cache_hits / facts.cache_lookups : 0.0, "ratio");
  add("serve.cache_lookups", facts.cache_lookups, "count");
  add("serve.batch_mean_size", facts.batches > 0 ? facts.batch_items / facts.batches : 0.0,
      "items");
  add("proc.cpu_ms.total", facts.cpu_ms_total, "ms");
  add("proc.cpu_ms.busiest", facts.cpu_ms_max_process, "ms");

  // ---- core: cold creation, with and without the ensemble's pretraining.
  EasyTime::Options opt = *preset;
  opt.store_dir = run_dir + "/probe-store";
  std::unique_ptr<EasyTime> system;
  add("core.create_s.pretrain",
      pr.Time("core.create.pretrain", [&]() {
        auto created = EasyTime::Create(opt);
        if (created.ok()) system = std::move(created).ValueOrDie();
      }) /
          1e3,
      "s");
  {
    EasyTime::Options bare = *preset;
    bare.pretrain_ensemble = false;
    add("core.create_s.seed",
        pr.Time("core.create.seed", [&]() { (void)EasyTime::Create(bare); }) / 1e3, "s");
  }
  if (!system) {
    std::cerr << "perfbench: in-process EasyTime::Create failed\n";
    return out;
  }
  add("core.create_s.qa",
      pr.Time("qa.create", [&]() { (void)easytime::qa::QaEngine::Create(system->knowledge()); }) /
          1e3,
      "s");

  // ---- serve: in-process HandleLine per kind, and the TCP front-end's share.
  easytime::serve::ForecastServer::Options sopt;
  sopt.max_request_bytes = 8u << 20;
  easytime::serve::ForecastServer server(system.get(), sopt);
  server.Start();
  auto handle_p50_us = [&](const std::string& name, const std::vector<std::string>& lines,
                           size_t reps) {
    std::vector<double> us;
    for (size_t r = 0; r < reps; ++r) {
      for (const std::string& l : lines) {
        us.push_back(1e3 * pr.Time(name, [&]() { (void)server.HandleLine(l); }));
      }
    }
    return Median(us);
  };
  auto lines_of = [&](Kind kind, size_t limit, const WorkloadSpec& fallback) {
    std::vector<std::string> lines;
    for (const Op* op : OpsOf(spec, fallback, kind, limit)) lines.push_back(WithoutNewline(op->line));
    return lines;
  };
  const auto hit_lines = lines_of(Kind::kForecastHit, 1, *serve_spec);
  (void)server.HandleLine(hit_lines[0]);  // fill the cache entry
  const double hit_us = handle_p50_us("serve.handle_line.forecast_hit", hit_lines, 400);
  add("serve.handle_line_us.forecast_hit", hit_us, "us");
  const auto miss_lines = lines_of(Kind::kForecastMiss, 60, *serve_spec);
  add("serve.handle_line_us.forecast_miss",
      handle_p50_us("serve.handle_line.forecast_miss", miss_lines, 1), "us");
  add("serve.handle_line_us.recommend",
      handle_p50_us("serve.handle_line.recommend", lines_of(Kind::kRecommend, 30, *serve_spec), 1),
      "us");
  std::vector<std::string> ask_lines;
  for (const Op* op : OpsOf(*serve_spec, *serve_spec, Kind::kAsk, 64)) {
    if (ask_lines.size() < serve_spec->questions.size()) ask_lines.push_back(WithoutNewline(op->line));
  }
  add("serve.handle_line_us.ask", handle_p50_us("serve.handle_line.ask", ask_lines, 2), "us");
  {
    // Stage untimed, then time the TS_FORECAST_BY of each session.
    std::vector<std::string> fc;
    for (const Phase* p : {&serve_spec->closed}) {
      for (const Unit& u : p->units) {
        if (u.ops.size() != 3 || u.ops[2].kind != Kind::kSqlForecast || fc.size() >= 20) continue;
        (void)server.HandleLine(WithoutNewline(u.ops[0].line));
        (void)server.HandleLine(WithoutNewline(u.ops[1].line));
        fc.push_back(WithoutNewline(u.ops[2].line));
      }
    }
    add("serve.handle_line_us.sql", handle_p50_us("serve.handle_line.sql", fc, 1), "us");
  }
  {
    // Appends in stream order: their start offsets match a fresh store.
    std::vector<std::string> appends;
    for (const Phase* p : {&ingest_spec->warmup, &ingest_spec->closed}) {
      for (const Unit& u : p->units) {
        for (const Op& op : u.ops) {
          if (op.kind == Kind::kAppend && appends.size() < 120) appends.push_back(WithoutNewline(op.line));
        }
      }
    }
    add("serve.handle_line_us.append", handle_p50_us("serve.handle_line.append", appends, 1), "us");
  }
  {
    // Loopback round trip of the cache-hit line through the epoll front-end.
    easytime::serve::EventLoopServer::Options fopt;
    easytime::serve::EventLoopServer front(&server, fopt);
    double tcp_us = NAN;
    if (front.Start().ok()) {
      LineClient c;
      if (c.Connect(front.port())) {
        std::string resp;
        const std::string line = hit_lines[0] + "\n";
        std::vector<double> us;
        for (int i = 0; i < 400; ++i) {
          us.push_back(1e3 * pr.Time("serve.tcp.forecast_hit", [&]() { c.Call(line, &resp); }));
        }
        tcp_us = Median(us);
      }
      front.Stop();
    }
    add("serve.tcp_minus_inproc_us", tcp_us - hit_us, "us");
    // Against the workload's own client-side p50; a workload that sends no
    // cached forecasts (one_click_eval) uses the loopback round trip above.
    add("trace.forecast_hit_coverage",
        hit_us / (facts.forecast_hit_tcp_p50_us > 0 ? facts.forecast_hit_tcp_p50_us : tcp_us),
        "ratio");
  }
  {
    // Job lane: submit -> first state other than "queued".
    std::vector<double> waits;
    for (const Op* op : OpsOf(*ingest_spec, *ingest_spec, Kind::kBacktest, 5)) {
      const uint64_t t0 = NowNs();
      auto resp = easytime::Json::Parse(server.HandleLine(WithoutNewline(op->line)));
      if (!resp.ok()) continue;
      const int64_t job = resp->Get("result").GetInt("job", -1);
      const std::string poll = "{\"endpoint\": \"job_status\", \"params\": {\"job\": " +
                               std::to_string(job) + "}}";
      while (true) {
        auto st = easytime::Json::Parse(server.HandleLine(poll));
        if (!st.ok() || st->Get("result").GetString("state", "") != "queued") break;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      waits.push_back(SinceMs(t0));
    }
    add("serve.job_wait_ms", Median(waits), "ms");
  }
  server.Stop();

  // ---- serve/request and common/json, per 1000 inline values.
  {
    double values = 0.0;
    std::vector<easytime::serve::Request> parsed;
    const uint64_t t0 = NowNs();
    for (const std::string& l : miss_lines) {
      ScopedSpan s(spans, pr.buf(), "serve.parse_request", root);
      auto r = easytime::serve::ParseRequest(l, 0);
      if (r.ok()) {
        values += static_cast<double>(r->params.Get("values").size());
        parsed.push_back(std::move(*r));
      }
    }
    const double parse_ms = SinceMs(t0);
    add("serve.parse_us_per_kvalue", 1e3 * parse_ms / (values / 1e3), "us");
    const uint64_t t1 = NowNs();
    for (const auto& r : parsed) {
      ScopedSpan s(spans, pr.buf(), "serve.canonical_key", root);
      (void)easytime::serve::CanonicalKey(r.endpoint, r.params);
    }
    add("serve.cache_key_us_per_kvalue", 1e3 * SinceMs(t1) / (values / 1e3), "us");
    std::vector<std::string> dumps;
    const uint64_t t2 = NowNs();
    for (const auto& r : parsed) {
      ScopedSpan s(spans, pr.buf(), "json.dump", root);
      dumps.push_back(r.params.Get("values").Dump());
    }
    add("json.dump_us_per_kvalue", 1e3 * SinceMs(t2) / (values / 1e3), "us");
    const uint64_t t3 = NowNs();
    for (const auto& d : dumps) {
      ScopedSpan s(spans, pr.buf(), "json.parse", root);
      (void)easytime::Json::Parse(d);
    }
    add("json.parse_us_per_kvalue", 1e3 * SinceMs(t3) / (values / 1e3), "us");
  }

  // ---- methods and nn: fit + forecast per method on a suite series.
  const std::vector<double>& series = suite[1].values;
  for (const char* m : kMethods) {
    std::vector<double> fit_ms;
    const double total = pr.MedianMs(std::string("methods.fit_forecast.") + m, 3, [&](size_t) {
      auto f = easytime::methods::MethodRegistry::Global().Create(m, easytime::Json::Object());
      if (!f.ok()) return;
      easytime::methods::FitContext ctx;
      ctx.horizon = 24;
      const uint64_t t0 = NowNs();
      (void)(*f)->Fit(series, ctx);
      fit_ms.push_back(SinceMs(t0));
      (void)(*f)->Forecast(24);
    });
    add(std::string("methods.fit_forecast_ms.") + m, total, "ms");
    if (std::find(std::begin(kDeep), std::end(kDeep), std::string(m)) != std::end(kDeep)) {
      add(std::string("nn.deep_fit_ms.") + m, Median(fit_ms), "ms");
    }
  }
  for (const Shape& s : kShapes) {
    easytime::Rng rng(seed);
    const auto a = easytime::nn::Matrix::Gaussian(s.m, s.k, 1.0, &rng);
    const auto b = easytime::nn::Matrix::Gaussian(s.k, s.n, 1.0, &rng);
    const std::pair<const char*, easytime::nn::MatrixMode> tiers[] = {
        {"ref", easytime::nn::MatrixMode::kReference},
        {"fast", easytime::nn::MatrixMode::kFast},
        {"f32", easytime::nn::MatrixMode::kFastF32}};
    for (const auto& [tier, mode] : tiers) {
      easytime::nn::ScopedMatrixMode scoped(mode);
      const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
      const size_t reps = std::max<size_t>(3, static_cast<size_t>(2e8 / flops));
      const double ms = pr.Time(std::string("nn.matmul.") + s.name + "." + tier, [&]() {
        for (size_t r = 0; r < reps; ++r) (void)a.MatMul(b);
      });
      add(std::string("nn.matmul_gflops.") + s.name + "." + tier,
          flops * static_cast<double>(reps) / (ms * 1e6), "GFLOP/s");
    }
  }

  // ---- ensemble.
  std::vector<const std::vector<double>*> inline_series;
  for (const Op* op : OpsOf(spec, *serve_spec, Kind::kForecastMiss, 20)) inline_series.push_back(op->series);
  add("ensemble.recommend_values_ms",
      pr.MedianMs("ensemble.recommend_values", inline_series.size(),
                  [&](size_t i) { (void)system->RecommendForValues(*inline_series[i], 3); }),
      "ms");
  {
    easytime::ensemble::Ts2VecEncoder encoder(preset->ensemble.ts2vec);
    add("ensemble.encode_ms",
        pr.MedianMs("ensemble.encode", inline_series.size(),
                    [&](size_t i) { (void)encoder.Represent(*inline_series[i]); }),
        "ms");
  }

  // ---- qa, knowledge, sql.
  {
    std::vector<std::string> names = easytime::methods::MethodRegistry::Global().Names();
    std::vector<std::string> domains(std::begin(kDomains), std::end(kDomains));
    std::vector<double> us;
    for (int r = 0; r < 20; ++r) {
      for (const Question& q : serve_spec->questions) {
        us.push_back(1e3 * pr.Time("qa.translate", [&]() {
          (void)easytime::qa::TranslateQuestion(q.text, names, domains, nullptr);
        }));
      }
    }
    add("qa.translate_us", Median(us), "us");
  }
  easytime::sql::Database db;
  add("knowledge.sql_export_ms", pr.MedianMs("knowledge.sql_export", 5, [&](size_t) {
        easytime::sql::Database fresh;
        (void)system->knowledge().ExportToDatabase(&fresh);
      }),
      "ms");
  (void)system->knowledge().ExportToDatabase(&db);
  {
    std::vector<double> scan, join;
    for (int r = 0; r < 3; ++r) {
      for (const Question& q : serve_spec->questions) {
        const bool is_join = q.sql.find(" JOIN ") != std::string::npos;
        const double ms = pr.Time(is_join ? "sql.select.join" : "sql.select.scan",
                                  [&]() { (void)easytime::sql::ExecuteQuery(&db, q.sql); });
        (is_join ? join : scan).push_back(ms);
      }
    }
    add("sql.select_ms.scan", Median(scan), "ms");
    add("sql.select_ms.join", Median(join), "ms");
  }
  {
    std::vector<double> ms;
    double groups = 0.0, total_ms = 0.0;
    for (const Unit& u : serve_spec->closed.units) {
      if (u.ops.size() != 3 || u.ops[2].kind != Kind::kSqlForecast || ms.size() >= 20) continue;
      std::vector<std::string> queries;
      for (const Op& op : u.ops) {
        JValue doc;
        std::string err;
        ParseJson(op.line, &doc, &err);
        queries.push_back(doc["params"].Str("query"));
      }
      (void)easytime::sql::ExecuteQuery(&db, queries[0]);
      (void)easytime::sql::ExecuteQuery(&db, queries[1]);
      const double t = pr.Time("sql.ts_forecast_by",
                               [&]() { (void)easytime::sql::ExecuteQuery(&db, queries[2]); });
      ms.push_back(t);
      total_ms += t;
      groups += static_cast<double>(u.ops[2].groups.size());
    }
    add("sql.ts_forecast_by_ms", Median(ms), "ms");
    add("sql.group_fits_per_s", groups / (total_ms / 1e3), "1/s");
  }

  // ---- tsdata and store: durable appends, characteristics.
  {
    const std::string name = suite[0].univariate ? suite[0].name : suite[1].name;
    std::vector<double> us;
    easytime::Rng rng(seed);
    for (int i = 0; i < 60; ++i) {
      auto snap = system->SeriesSnapshot(name);
      if (!snap.ok()) break;
      std::vector<double> vals(8);
      for (double& v : vals) v = snap->values().back() + rng.Gaussian();
      const size_t start = snap->length();
      us.push_back(1e3 * pr.Time("tsdata.append", [&]() {
        (void)system->AppendObservations(name, {vals}, start);
      }));
    }
    add("tsdata.append_us", Median(us), "us");
  }
  {
    easytime::store::WalOptions wo;
    wo.sync_every_append = true;
    auto wal = easytime::store::Wal::Open(run_dir + "/probe-wal", wo, 0, nullptr);
    std::vector<double> us;
    const std::string payload(200, 'x');
    for (int i = 0; wal.ok() && i < 200; ++i) {
      us.push_back(1e3 * pr.Time("store.append_sync", [&]() { (void)(*wal)->Append(payload); }));
    }
    add("store.sync_us", Median(us), "us");
    wo.group_commit = true;
    auto group = easytime::store::Wal::Open(run_dir + "/probe-wal-group", wo, 0, nullptr);
    if (group.ok()) {
      std::vector<std::thread> appenders;
      const size_t n = std::max(1u, std::thread::hardware_concurrency());
      for (size_t t = 0; t < n; ++t) {
        appenders.emplace_back([&]() {
          for (int i = 0; i < 100; ++i) (void)(*group)->Append(payload);
        });
      }
      for (auto& t : appenders) t.join();
      const auto gs = (*group)->group_commit_stats();
      add("store.records_per_sync",
          gs.batches ? static_cast<double>(gs.records) / static_cast<double>(gs.batches) : 0.0,
          "records");
    } else {
      add("store.records_per_sync", NAN, "records");
    }
  }
  std::vector<const std::vector<double>*> grown;
  for (const auto& s : ingest_spec->series_store) grown.push_back(&s);
  add("tsdata.characteristics_ms",
      pr.MedianMs("tsdata.characteristics", grown.size(), [&](size_t i) {
        (void)easytime::tsdata::ExtractCharacteristics(*grown[i]);
      }),
      "ms");

  // ---- eval: the backtest engine on the grown series.
  {
    easytime::eval::BacktestConfig bc;
    bc.method = "naive";
    bc.origins = 16;
    bc.horizon = 12;
    double origins = 0.0;
    const double ms = pr.Time("eval.backtest", [&]() {
      for (const auto* s : grown) {
        auto r = easytime::eval::RunBacktest(*s, 0, bc);
        if (r.ok()) origins += static_cast<double>(bc.origins);
      }
    });
    add("eval.backtest_origins_per_s", origins / (ms / 1e3), "1/s");
  }

  // ---- pipeline: the runner at 1 thread and at nproc.
  {
    easytime::pipeline::BenchmarkConfig bc;
    for (const char* m : {"naive", "ses", "theta", "ar", "knn"}) bc.methods.push_back({m, {}});
    const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    double rate[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      bc.num_threads = i == 0 ? 1 : nproc;
      easytime::pipeline::PipelineRunner runner(system->repository(), bc);
      double pairs = 0.0;
      const double ms = pr.Time(i == 0 ? "pipeline.run.1t" : "pipeline.run.nt", [&]() {
        for (int rep = 0; rep < 10; ++rep) {
          auto report = runner.Run();
          if (report.ok()) pairs += static_cast<double>(report->records.size());
        }
      });
      rate[i] = pairs / (ms / 1e3);
    }
    add("pipeline.pairs_per_s.1t", rate[0], "pairs/s");
    add("pipeline.pairs_per_s.nt", rate[1], "pairs/s");
    add("pipeline.parallel_efficiency", rate[0] > 0 ? rate[1] / rate[0] / static_cast<double>(nproc) : 0.0,
        "ratio");
  }
  system.reset();

  // ---- cluster: shard map, and one router hop over a single small shard.
  {
    easytime::cluster::ShardMap map;
    map.AddShard("shard-0");
    map.AddShard("shard-1");
    std::map<std::string, double> per;
    std::vector<std::string> keys;
    for (const Phase* p : {&spec.closed, &spec.open}) {
      for (const Unit& u : p->units) {
        for (const Op& op : u.ops) {
          JValue doc;
          std::string err;
          ParseJson(op.line, &doc, &err);
          const JValue& params = doc["params"];
          keys.push_back(params.Has("dataset") ? params.Str("dataset")
                         : params.Has("question") ? params.Str("question")
                                                  : op.line.substr(op.line.find("\"params\"")));
        }
      }
    }
    const std::map<std::string, size_t> no_load;
    for (const auto& k : keys) {
      auto owner = map.Owner(k);
      if (owner.ok()) per[*owner] += 1.0;
    }
    const double hi = std::max(per["shard-0"], per["shard-1"]);
    const double lo = std::min(per["shard-0"], per["shard-1"]);
    add("cluster.shard_skew", lo > 0 ? hi / lo : NAN, "ratio");
    const uint64_t t0 = NowNs();
    size_t picks = 0;
    {
      ScopedSpan s(spans, pr.buf(), "cluster.pick", root);
      for (int r = 0; r < 20; ++r) {
        for (const auto& k : keys) {
          (void)map.Pick(k, no_load);
          ++picks;
        }
      }
    }
    add("cluster.pick_ns", static_cast<double>(NowNs() - t0) / static_cast<double>(picks), "ns");
  }
  {
    easytime::cluster::ClusterRouter::Options ro;
    ro.shards = 1;
    ro.replicate = false;
    ro.worker_binary = worker_binary;
    ro.work_dir = run_dir + "/probe-cluster";
    ro.preset = "small";
    ro.health_interval_ms = 0;
    easytime::cluster::ClusterRouter router(ro);
    double hop = NAN;
    if (router.Start().ok()) {
      const uint16_t worker = router.supervisor()->PortOf("shard-0-p0");
      const std::string line =
          "{\"id\": 1, \"endpoint\": \"forecast\", \"params\": {\"dataset\": \"traffic_u0\", "
          "\"method\": \"naive\", \"horizon\": 12}}\n";
      auto p50 = [&](uint16_t port, const char* name) -> double {
        LineClient c;
        std::vector<double> us;
        std::string resp;
        if (!c.Connect(port)) return NAN;
        c.Call(line, &resp);
        for (int i = 0; i < 400; ++i) {
          us.push_back(1e3 * pr.Time(name, [&]() { c.Call(line, &resp); }));
        }
        return Median(us);
      };
      const double direct = p50(worker, "cluster.direct");
      const double routed = p50(router.port(), "cluster.routed");
      hop = routed - direct;
    }
    router.Stop();
    add("cluster.router_hop_us", hop, "us");
  }

  // ---- The tracer's own cost per span.
  {
    SpanLog probe_log(true);
    std::vector<Span>* b = probe_log.Buffer();
    const uint64_t t0 = NowNs();
    for (int i = 0; i < 100000; ++i) ScopedSpan s(&probe_log, b, "x", 0, 1);
    add("trace.span_ns", static_cast<double>(NowNs() - t0) / 1e5, "ns");
  }
  {
    Span all;
    all.name = "layer_probes";
    all.id = root;
    all.start_ns = probes_t0;
    all.end_ns = NowNs();
    pr.buf()->push_back(all);
  }
  return out;
}

}  // namespace perfbench
