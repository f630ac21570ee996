#pragma once

/// \file loadgen.h
/// \brief The load generator: one thread and one connection per client
/// (never more than nproc), running the closed- and open-loop phases of a
/// workload's stream against the program and checking every answer.
///
/// The connections form pools: a unit goes to the next free connection of
/// its pool. Closed loop: a connection takes its next unit only after the
/// last reply. Open loop: each unit is due at a seeded Poisson arrival time
/// and its first request is timed from when it was due, so time spent
/// waiting for a free connection counts; the generator records how late it
/// sent a unit that a connection had claimed before it was due (its own
/// lateness). Units sharing an order key all run on one connection of
/// their pool, in stream order.
///
/// Appends from different connections overlap, except the one that brings
/// the program's append log to its compaction threshold: it waits until no
/// other append is in flight, and later appends wait until it is answered.
/// Two appends that both reach the threshold compact at once and race on
/// the snapshot file (a known fault, see CHANGES.md), which would fail one
/// of them now and then; every other append still shares group commits.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "minijson.h"
#include "procs.h"
#include "stream.h"
#include "trace.h"

namespace perfbench {

/// What one phase produced.
struct Tally {
  /// Latency in seconds of every successful op, by kind; jobs are timed
  /// from submit until their finished state was seen.
  std::map<Kind, std::vector<double>> latency_s;
  /// For each latency sample, when it started (due or sent), in seconds
  /// from the phase start.
  std::map<Kind, std::vector<double>> start_s;
  std::map<Kind, size_t> attempted;
  std::map<Kind, size_t> failed;
  std::vector<double> lateness_s;  ///< open loop: generator's own lateness
  double wall_s = 0.0;
  size_t pairs = 0;  ///< evaluate records completed

  size_t Attempted() const;
  size_t Failed() const;
  void Merge(const Tally& other);
};

class LoadGen {
 public:
  LoadGen(const WorkloadSpec& spec, uint16_t port,
          std::set<std::string> registered, SpanLog* spans);

  bool Connect();

  /// Runs \p closed (closed loop), then \p open (open loop). Either may be
  /// null.
  void Run(const Phase* closed, const Phase* open, Tally* closed_tally,
           Tally* open_tally);

  /// Appends that ran alone because they reached the compaction threshold.
  size_t appends_alone() const { return appends_alone_; }

  /// Sends one untimed request on a fresh connection (stats, checks).
  bool Request(const std::string& line, JValue* result, std::string* error);

  size_t check_failures() const { return check_failures_.load(); }
  std::vector<std::string> failure_messages();

  /// Successful responses per endpoint, over everything sent so far.
  std::map<std::string, uint64_t> endpoint_ok();
  /// The rows of the first answer to each question asked, and how many
  /// times each question was answered.
  const std::map<int, JValue>& ask_rows() const { return ask_rows_; }
  /// The SQL the program translated each question to, on its first answer.
  const std::map<int, std::string>& ask_sql() const { return ask_sql_; }
  const std::map<int, size_t>& ask_counts() const { return ask_counts_; }

 private:
  struct Item {
    const Unit* unit;
    double due_s;  ///< < 0: closed loop
    size_t index;  ///< position in the phase's stream
  };
  /// The unkeyed units of one pool, in stream order; free connections of
  /// the pool take the next.
  struct Pool {
    std::vector<Item> items;
    std::atomic<size_t> next{0};
  };
  /// What one connection runs in a phase: its pool's shared units and the
  /// keyed units pinned to it, interleaved in stream order.
  struct Lane {
    Pool* pool = nullptr;
    std::vector<Item> pinned;
  };

  /// Holds an append's turn while it is sent and answered (see above);
  /// does nothing for other kinds.
  class AppendTurn {
   public:
    AppendTurn(LoadGen* gen, bool active);
    ~AppendTurn();

   private:
    LoadGen* gen_;
    bool active_;
    bool alone_ = false;
  };

  /// Records a wrong answer (the program answered, but not correctly).
  void Fail(const std::string& message);
  void RunPhase(const Phase& phase, Tally* tally);
  /// Runs one connection's lane; its units are tallied in \p tally.
  void Worker(size_t conn, Lane* lane, Tally* tally, uint64_t start_ns);
  void Process(size_t conn, const Item& item, Tally* tally, uint64_t start_ns,
               std::vector<Span>* buf, std::map<std::string, uint64_t>* ok_counts);
  /// Executes one op; false when it failed (error reply or transport).
  bool Execute(size_t conn, const Op& op, uint64_t base_ns, uint64_t start_ns,
               Tally* tally, std::vector<Span>* buf,
               std::map<std::string, uint64_t>* ok_counts);

  const WorkloadSpec& spec_;
  uint16_t port_;
  std::set<std::string> registered_;
  SpanLog* spans_;
  std::vector<std::unique_ptr<LineClient>> conns_;
  RepeatRegistry repeats_;

  std::mutex mu_;  ///< guards the members below
  std::map<std::string, uint64_t> endpoint_ok_;
  std::map<int, JValue> ask_rows_;
  std::map<int, size_t> ask_counts_;
  std::map<int, std::string> ask_sql_;
  std::vector<std::string> messages_;
  std::atomic<size_t> check_failures_{0};

  std::mutex append_mu_;  ///< guards the append turn state below
  std::condition_variable append_cv_;
  uint64_t appends_sent_ = 0;
  size_t appends_in_flight_ = 0;
  bool append_alone_ = false;
  size_t appends_alone_ = 0;
};

/// p-th percentile (0..100) by nearest rank of an unsorted sample.
double Percentile(std::vector<double> v, double p);

/// The median over \p window_s windows of the p-th percentile of the
/// samples that started in each; windows with fewer than \p min_samples
/// samples are skipped. A short stall of the shared host moves a few
/// windows, not the median of them.
double WindowedPercentile(const std::vector<double>& values,
                          const std::vector<double>& start_s, double window_s,
                          double p, size_t min_samples);



}  // namespace perfbench
