#include "loadgen.h"

#include <algorithm>
#include <deque>
#include <cmath>
#include <thread>

namespace perfbench {

namespace {

// The append log compacts once this many appends have reached it since
// its last snapshot: EasyTime::Options::append_compact_every, whose default
// the benchmark's server runs with. The store starts empty and only this
// generator appends, so every append's place in that count is known.
constexpr uint64_t kAppendCompactEvery = 256;

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

void SleepUntilNs(uint64_t t) {
  const uint64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

bool Terminal(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled";
}

/// The "endpoint" field of a request line the benchmark wrote.
std::string RequestEndpoint(const std::string& line) {
  const std::string key = "\"endpoint\": \"";
  const size_t at = line.find(key);
  if (at == std::string::npos) return "";
  const size_t from = at + key.size();
  return line.substr(from, line.find('"', from) - from);
}

}  // namespace

size_t Tally::Attempted() const {
  size_t n = 0;
  for (const auto& [k, v] : attempted) n += v;
  return n;
}

size_t Tally::Failed() const {
  size_t n = 0;
  for (const auto& [k, v] : failed) n += v;
  return n;
}

void Tally::Merge(const Tally& other) {
  for (const auto& [k, v] : other.latency_s) {
    auto& dst = latency_s[k];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  for (const auto& [k, v] : other.start_s) {
    auto& dst = start_s[k];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  for (const auto& [k, v] : other.attempted) attempted[k] += v;
  for (const auto& [k, v] : other.failed) failed[k] += v;
  lateness_s.insert(lateness_s.end(), other.lateness_s.begin(),
                    other.lateness_s.end());
  wall_s = std::max(wall_s, other.wall_s);
  pairs += other.pairs;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double WindowedPercentile(const std::vector<double>& values,
                          const std::vector<double>& start_s, double window_s,
                          double p, size_t min_samples) {
  std::map<long, std::vector<double>> windows;
  for (size_t i = 0; i < values.size(); ++i) {
    windows[static_cast<long>(start_s[i] / window_s)].push_back(values[i]);
  }
  std::vector<double> per;
  for (auto& [w, v] : windows) {
    if (v.size() >= min_samples) per.push_back(Percentile(std::move(v), p));
  }
  return Percentile(std::move(per), 50);
}

LoadGen::LoadGen(const WorkloadSpec& spec, uint16_t port,
                 std::set<std::string> registered, SpanLog* spans)
    : spec_(spec), port_(port), registered_(std::move(registered)),
      spans_(spans) {}

LoadGen::AppendTurn::AppendTurn(LoadGen* gen, bool active) : gen_(gen), active_(active) {
  if (!active_) return;
  std::unique_lock<std::mutex> lock(gen_->append_mu_);
  gen_->append_cv_.wait(lock, [this]() { return !gen_->append_alone_; });
  alone_ = ++gen_->appends_sent_ % kAppendCompactEvery == 0;
  if (alone_) {
    gen_->append_alone_ = true;
    gen_->appends_alone_++;
    gen_->append_cv_.wait(lock, [this]() { return gen_->appends_in_flight_ == 0; });
  } else {
    gen_->appends_in_flight_++;
  }
}

LoadGen::AppendTurn::~AppendTurn() {
  if (!active_) return;
  std::lock_guard<std::mutex> lock(gen_->append_mu_);
  if (alone_) {
    gen_->append_alone_ = false;
  } else {
    gen_->appends_in_flight_--;
  }
  gen_->append_cv_.notify_all();
}

bool LoadGen::Connect() {
  for (size_t i = 0; i < spec_.connections; ++i) {
    auto c = std::make_unique<LineClient>();
    if (!c->Connect(port_)) return false;
    conns_.push_back(std::move(c));
  }
  return true;
}

void LoadGen::Fail(const std::string& message) {
  check_failures_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (messages_.size() < 20) messages_.push_back(message);
}

std::vector<std::string> LoadGen::failure_messages() {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

std::map<std::string, uint64_t> LoadGen::endpoint_ok() {
  std::lock_guard<std::mutex> lock(mu_);
  return endpoint_ok_;
}

bool LoadGen::Request(const std::string& line, JValue* result, std::string* error) {
  LineClient c;
  std::string resp;
  if (!c.Connect(port_) || !c.Call(line, &resp)) {
    *error = "transport failure";
    return false;
  }
  JValue doc;
  if (!ParseJson(resp, &doc, error)) return false;
  if (!doc.Bool("ok")) {
    *error = doc["error"].Str("code") + ": " + doc["error"].Str("message");
    return false;
  }
  *result = doc["result"];
  std::lock_guard<std::mutex> lock(mu_);
  endpoint_ok_[RequestEndpoint(line)]++;
  return true;
}

bool LoadGen::Execute(size_t conn, const Op& op, uint64_t base_ns, uint64_t start_ns,
                      Tally* tally, std::vector<Span>* buf,
                      std::map<std::string, uint64_t>* ok_counts) {
  LineClient& client = *conns_[conn];
  tally->attempted[op.kind]++;
  const uint64_t request_id = spans_->enabled() ? spans_->NewId() : 0;
  ScopedSpan span(spans_, buf, KindName(op.kind), 0, request_id);

  std::string resp, error;
  JValue doc;
  auto failed = [&](const std::string& why) {
    tally->failed[op.kind]++;
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 20) {
      messages_.push_back(std::string("failed ") + KindName(op.kind) + ": " + why);
    }
    return false;
  };
  bool answered = false;
  {
    AppendTurn turn(this, op.kind == Kind::kAppend);
    answered = client.Call(op.line, &resp);
  }
  if (!answered) return failed("transport failure");
  if (!ParseJson(resp, &doc, &error)) return failed("unparseable reply: " + error);
  if (!doc.Bool("ok")) {
    return failed(doc["error"].Str("code") + ": " + doc["error"].Str("message"));
  }
  (*ok_counts)[KindEndpoint(op.kind)]++;
  const JValue& result = doc["result"];

  std::string bad;
  switch (op.kind) {
    case Kind::kForecastHit:
    case Kind::kForecastMiss:
    case Kind::kForecastFresh:
      bad = CheckForecast(op, result);
      if (bad.empty() && op.repeatable) bad = repeats_.Check(op.line, result["values"]);
      break;
    case Kind::kAppend:
      bad = CheckAppend(op, result);
      break;
    case Kind::kSqlStage:
      bad = CheckStage(result);
      break;
    case Kind::kSqlForecast:
      bad = CheckSqlForecast(op, result);
      break;
    case Kind::kRecommend:
      bad = CheckRecommend(op, result, registered_);
      break;
    case Kind::kAsk: {
      std::lock_guard<std::mutex> lock(mu_);
      ask_counts_[op.question]++;
      auto [it, fresh] = ask_rows_.emplace(op.question, result["rows"]);
      if (fresh) ask_sql_[op.question] = result.Str("sql");
      if (!fresh) bad = CompareRows(it->second, result["rows"]);
      if (!bad.empty()) bad = "repeated question answered differently: " + bad;
      break;
    }
    case Kind::kBacktest:
    case Kind::kEvaluate: {
      const std::string poll = "{\"id\": 0, \"endpoint\": \"job_status\", \"params\": {\"job\": " +
                               std::to_string(static_cast<int64_t>(result.Num("job", -1))) +
                               "}}\n";
      JValue status;
      while (true) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        JValue pdoc;
        if (!client.Call(poll, &resp)) return failed("transport failure while polling");
        if (!ParseJson(resp, &pdoc, &error) || !pdoc.Bool("ok")) {
          return failed("job_status failed: " + resp.substr(0, 200));
        }
        (*ok_counts)["job_status"]++;
        if (Terminal(pdoc["result"].Str("state"))) {
          status = pdoc["result"];
          break;
        }
      }
      if (status.Str("state") == "failed") return failed("job failed: " + status.Str("error"));
      bad = op.kind == Kind::kBacktest ? CheckBacktest(op, status)
                                       : CheckEvaluate(op, status);
      if (bad.empty() && op.kind == Kind::kEvaluate) tally->pairs += op.expect_records;
      break;
    }
    case Kind::kCount:
      break;
  }
  if (!bad.empty()) Fail(std::string(KindName(op.kind)) + ": " + bad);
  const uint64_t done = NowNs();
  tally->latency_s[op.kind].push_back(Seconds(done - base_ns));
  tally->start_s[op.kind].push_back(Seconds(base_ns - start_ns));
  return true;
}

void LoadGen::Process(size_t conn, const Item& item, Tally* tally, uint64_t start_ns,
                      std::vector<Span>* buf, std::map<std::string, uint64_t>* ok_counts) {
  uint64_t base = 0;
  if (item.due_s >= 0.0) {
    const uint64_t due = start_ns + static_cast<uint64_t>(item.due_s * 1e9);
    if (NowNs() < due) {
      SleepUntilNs(due);
      tally->lateness_s.push_back(Seconds(NowNs() - due));
    }
    base = due;
  }
  const auto& ops = item.unit->ops;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (base == 0) base = NowNs();
    if (!Execute(conn, ops[i], base, start_ns, tally, buf, ok_counts)) {
      // The rest of the unit depends on this op; count it as failed too.
      for (size_t j = i + 1; j < ops.size(); ++j) {
        tally->attempted[ops[j].kind]++;
        tally->failed[ops[j].kind]++;
      }
      break;
    }
    base = 0;
  }
  tally->wall_s = std::max(tally->wall_s, Seconds(NowNs() - start_ns));
}

void LoadGen::Worker(size_t conn, Lane* lane, Tally* tally, uint64_t start_ns) {
  std::map<std::string, uint64_t> ok_counts;
  std::vector<Span>* buf = spans_->enabled() ? spans_->Buffer() : nullptr;
  size_t pin = 0;
  while (true) {
    // Run whichever comes first in the stream: this connection's next
    // pinned unit or the pool's next shared one.
    const Item* item = nullptr;
    if (lane->pool != nullptr) {
      size_t next = lane->pool->next.load();
      while (next < lane->pool->items.size() &&
             (pin == lane->pinned.size() ||
              lane->pool->items[next].index < lane->pinned[pin].index)) {
        if (lane->pool->next.compare_exchange_weak(next, next + 1)) {
          item = &lane->pool->items[next];
          break;
        }
      }
    }
    if (item == nullptr) {
      if (pin == lane->pinned.size()) break;
      item = &lane->pinned[pin++];
    }
    Process(conn, *item, tally, start_ns, buf, &ok_counts);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [ep, count] : ok_counts) endpoint_ok_[ep] += count;
}

void LoadGen::RunPhase(const Phase& phase, Tally* tally) {
  const size_t n = conns_.size();
  // The connections of each pool, in order.
  std::map<int, std::vector<size_t>> members;
  for (size_t c = 0; c < n; ++c) {
    const int pool = phase.conn_pool.empty()
                         ? 0
                         : (c < phase.conn_pool.size() ? phase.conn_pool[c] : -1);
    if (pool >= 0) members[pool].push_back(c);
  }
  std::deque<Pool> pools;
  std::vector<Lane> lanes(n);
  std::map<int, Pool*> by_id;
  for (const auto& [id, conns] : members) {
    by_id[id] = &pools.emplace_back();
    for (size_t c : conns) lanes[c].pool = by_id[id];
  }
  for (size_t i = 0; i < phase.units.size(); ++i) {
    const Unit& u = phase.units[i];
    const double due = phase.due_s.empty() ? -1.0 : phase.due_s[i];
    const Item item{&u, due, i};
    const auto& conns = members.at(u.pool);
    if (u.order_key >= 0) {
      lanes[conns[static_cast<size_t>(u.order_key) % conns.size()]].pinned.push_back(item);
    } else {
      by_id.at(u.pool)->items.push_back(item);
    }
  }
  // One thread per connection, one tally each, merged once all are done.
  std::vector<Tally> per_conn(n);
  const uint64_t start = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([this, c, &lanes, &per_conn, start]() {
      Worker(c, &lanes[c], &per_conn[c], start);
    });
  }
  for (auto& t : threads) t.join();
  for (const Tally& t : per_conn) tally->Merge(t);
}

void LoadGen::Run(const Phase* closed, const Phase* open, Tally* closed_tally,
                  Tally* open_tally) {
  if (closed != nullptr) RunPhase(*closed, closed_tally);
  if (open != nullptr) RunPhase(*open, open_tally);
}

}  // namespace perfbench
