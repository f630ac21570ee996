#include "cluster/supervisor.h"

#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/string_util.h"

namespace easytime::cluster {

namespace {
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}
}  // namespace

Supervisor::~Supervisor() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, w] : workers_) {
    if (w.proc) w.proc->Terminate();
  }
}

easytime::Status Supervisor::LaunchLocked(Worker& w) {
  // A stale port file from a previous life must not satisfy the wait.
  std::error_code ec;
  fs::remove(w.spec.port_file, ec);

  Subprocess::Options opts;
  opts.env = w.spec.env;
  opts.log_path = w.spec.log_path;
  EASYTIME_ASSIGN_OR_RETURN(Subprocess proc,
                            Subprocess::Spawn(w.spec.argv, opts));
  w.proc = std::make_unique<Subprocess>(std::move(proc));
  w.last_spawn = Clock::now();
  w.port = 0;
  w.spawning = true;
  return Status::OK();
}

easytime::Result<uint16_t> Supervisor::AwaitPort(const std::string& name) {
  // Wait for the worker to publish "PORT\n". Bring-up on a cold store runs
  // a seeding evaluation, so the wait is long but checks for early death.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = workers_.find(name);
      if (it == workers_.end()) {
        return Status::NotFound("worker '" + name +
                                "' was forgotten during bring-up");
      }
      Worker& w = it->second;
      std::ifstream in(w.spec.port_file);
      std::string line;
      if (in && std::getline(in, line)) {
        auto port = ParseInt(line);
        if (port.ok() && *port > 0 && *port <= 65535) {
          w.port = static_cast<uint16_t>(*port);
          w.spawning = false;
          return w.port;
        }
      }
      if (!w.proc->Alive()) {
        w.spawning = false;
        return Status::Unavailable(
            "worker '" + w.spec.name + "' died during bring-up (see " +
            (w.spec.log_path.empty() ? "its stderr" : w.spec.log_path) + ")");
      }
      if (MsSince(w.last_spawn) >= options_.spawn_timeout_ms) {
        w.proc->Terminate();
        w.spawning = false;
        return Status::DeadlineExceeded(
            "worker '" + w.spec.name + "' did not publish a port within " +
            std::to_string(options_.spawn_timeout_ms) + " ms");
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

easytime::Result<pid_t> Supervisor::Launch(const WorkerSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = workers_.try_emplace(spec.name);
  Worker& w = it->second;
  if (!fresh && (w.spawning || (w.proc && w.proc->Alive()))) {
    return Status::AlreadyExists("worker '" + spec.name + "' is running");
  }
  w.spec = spec;
  auto launched = LaunchLocked(w);
  if (!launched.ok()) {
    if (fresh) workers_.erase(it);
    return launched;
  }
  return w.proc->pid();
}

easytime::Result<uint16_t> Supervisor::Spawn(const WorkerSpec& spec) {
  EASYTIME_ASSIGN_OR_RETURN(pid_t pid, Launch(spec));
  auto port = AwaitPort(spec.name);
  if (!port.ok()) {
    // Drop the failed entry, but only if it is still OUR launch — a
    // concurrent caller may have replaced it once spawning cleared.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = workers_.find(spec.name);
    if (it != workers_.end() && it->second.proc &&
        it->second.proc->pid() == pid) {
      workers_.erase(it);
    }
  }
  return port;
}

bool Supervisor::Alive(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workers_.find(name);
  return it != workers_.end() && it->second.proc && it->second.proc->Alive();
}

easytime::Status Supervisor::Kill(const std::string& name, int sig) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workers_.find(name);
  if (it == workers_.end() || !it->second.proc) {
    return Status::NotFound("no worker '" + name + "'");
  }
  return it->second.proc->Kill(sig);
}

void Supervisor::Terminate(const std::string& name, double grace_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workers_.find(name);
  if (it != workers_.end() && it->second.proc) {
    it->second.proc->Terminate(grace_ms);
  }
}

easytime::Result<uint16_t> Supervisor::Restart(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = workers_.find(name);
    if (it == workers_.end()) {
      return Status::NotFound("no worker '" + name + "'");
    }
    Worker& w = it->second;
    if (w.spawning || (w.proc && w.proc->Alive())) {
      return Status::AlreadyExists("worker '" + name + "' is still running");
    }
    const double backoff =
        std::min(options_.restart_backoff_max_ms,
                 options_.restart_backoff_ms *
                     static_cast<double>(uint64_t{1} << std::min<size_t>(
                                             w.restarts, 20)));
    if (w.restarts > 0 && MsSince(w.last_spawn) < backoff) {
      return Status::Unavailable("restart of '" + name + "' backing off (" +
                                 std::to_string(backoff) + " ms window)");
    }
    ++w.restarts;
    EASYTIME_RETURN_IF_ERROR(LaunchLocked(w));
  }
  return AwaitPort(name);
}

void Supervisor::Forget(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  workers_.erase(name);
}

uint16_t Supervisor::PortOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workers_.find(name);
  return it == workers_.end() ? 0 : it->second.port;
}

size_t Supervisor::Restarts(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workers_.find(name);
  return it == workers_.end() ? 0 : it->second.restarts;
}

easytime::Json Supervisor::StatsJson() {
  std::lock_guard<std::mutex> lock(mu_);
  easytime::Json out = easytime::Json::Object();
  for (auto& [name, w] : workers_) {
    easytime::Json j = easytime::Json::Object();
    j.Set("alive", w.proc != nullptr && w.proc->Alive() ? true : false);
    j.Set("port", static_cast<int64_t>(w.port));
    j.Set("restarts", static_cast<int64_t>(w.restarts));
    out.Set(name, std::move(j));
  }
  return out;
}

}  // namespace easytime::cluster
