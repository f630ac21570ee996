#pragma once

/// \file stream.h
/// \brief Seeded request streams for the benchmark's workloads. Everything
/// the program receives is generated here from (workload, seed, seconds):
/// the same triple yields byte-identical request lines. Each operation
/// carries what the benchmark itself expects of the answer, computed apart
/// from the program (see checks.h).

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Kind : int {
  kForecastHit,    ///< stored dataset, closed-form method, skewed popularity
  kForecastMiss,   ///< fresh inline series (never repeats)
  kForecastFresh,  ///< stored dataset right after this client appended to it
  kRecommend,      ///< recommend on a fresh inline series
  kAsk,            ///< natural-language question
  kSqlStage,       ///< sql CREATE TABLE / INSERT
  kSqlForecast,    ///< sql SELECT ... FROM TS_FORECAST_BY(...)
  kAppend,         ///< append with an explicit start offset
  kBacktest,       ///< backtest job: submit, then poll to completion
  kEvaluate,       ///< evaluate job: submit, then poll to completion
  kCount
};

const char* KindName(Kind kind);
/// The serving endpoint the kind's request line names.
const char* KindEndpoint(Kind kind);
bool IsForecast(Kind kind);

/// One request line plus the benchmark's expectation of its answer.
struct Op {
  Kind kind = Kind::kForecastHit;
  std::string line;  ///< newline-terminated request line
  // Expectations; which fields apply depends on the kind.
  std::string method;
  size_t horizon = 0;
  const std::vector<double>* series = nullptr;  ///< the target's known values
  size_t length = 0;  ///< prefix of *series the program holds at answer time
  bool repeatable = false;  ///< identical lines must answer identically
  std::vector<std::string> groups;  ///< sql forecast: sorted group names
  std::vector<double> group_last;   ///< last staged value per sorted group
  int question = -1;                ///< ask / sql check: question index
  size_t k = 0;                     ///< recommend: requested count
  size_t origins = 0;               ///< backtest
  size_t expect_records = 0;        ///< evaluate: methods x datasets
};

/// Operations that must run in order on one connection (a producer's
/// append-then-forecast, a stage-then-forecast SQL session, a job's submit
/// and polls). Units are what the closed and open loops schedule: a unit
/// goes to whichever connection of its pool is free next.
struct Unit {
  std::vector<Op> ops;
  int pool = 0;  ///< which of the phase's connection pools runs it
  /// Units with the same key run on one connection of the pool, in stream
  /// order (a producer's appends to one dataset); -1 = no ordering.
  int order_key = -1;
};

struct Phase {
  std::vector<Unit> units;
  /// Open loop only: offset in seconds from the phase start at which each
  /// unit is due. Empty for a closed loop.
  std::vector<double> due_s;
  /// The pool of each connection in this phase (-1 = not used by it).
  /// Empty = every connection in pool 0.
  std::vector<int> conn_pool;
};

struct Question {
  Question(std::string text_in, std::string sql_in, std::string fault_sql_in = "")
      : text(std::move(text_in)), sql(std::move(sql_in)), fault_sql(std::move(fault_sql_in)) {}

  std::string text;  ///< what the client asks
  std::string sql;   ///< the same question written by hand
  /// Non-empty for the one question the program answers wrongly on every
  /// seed (a known fault, see CHANGES.md): the fragment its wrong
  /// translation carries. While the answer differs from the hand-written
  /// query and its SQL carries this fragment, its asks count as failed
  /// operations; a wrong answer of any other form fails the run.
  std::string fault_sql;
};

struct WorkloadSpec {
  std::string name;
  bool routed = false;  ///< through a ClusterRouter over 2 shards + replicas
  size_t connections = 4;
  Phase warmup;  ///< untimed: fills the result cache, seeds live datasets
  Phase closed;
  Phase open;
  double open_rate = 0.0;  ///< open-loop arrivals per second
  std::vector<Question> questions;
  /// Storage for the series that Op::series points into.
  std::deque<std::vector<double>> series_store;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds a workload's stream. \p suite holds channel 0 of every stored
/// dataset of the default preset, by name, in repository order, plus a
/// univariate flag for each.
struct SuiteSeries {
  std::string name;
  bool univariate = true;
  std::vector<double> values;
};
std::unique_ptr<WorkloadSpec> BuildWorkload(
    const std::string& name, uint64_t seed, int seconds,
    const std::vector<SuiteSeries>& suite);

/// FNV-1a over every request line of every phase, in order.
uint64_t StreamDigest(const WorkloadSpec& spec);

/// Small deterministic generator (splitmix64), identical on every platform.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  ///< [0, 1)
  size_t Below(size_t n);
  double Normal();
  double Exponential(double rate);

 private:
  uint64_t state_;
};

}  // namespace perfbench
