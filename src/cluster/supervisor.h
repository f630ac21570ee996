#pragma once

/// \file supervisor.h
/// \brief Worker-process supervision for the cluster tier (DESIGN.md §14):
/// launch worker binaries, wait for each to publish its bound port through a
/// port file, poll liveness, and restart crashed workers under exponential
/// backoff. The supervisor owns the processes but not the policy — the
/// router decides WHEN to restart or promote; the supervisor only refuses
/// restarts that arrive before the current backoff window has elapsed.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/subprocess.h"

namespace easytime::cluster {

/// Everything needed to (re)spawn one worker.
struct WorkerSpec {
  std::string name;                ///< unique supervisor-level handle
  std::vector<std::string> argv;   ///< binary + flags (incl. --port-file)
  std::vector<std::string> env;    ///< extra "KEY=VALUE" entries
  std::string port_file;           ///< where the worker publishes its port
  std::string log_path;            ///< stdout/stderr redirect ("" = inherit)
};

class Supervisor {
 public:
  struct Options {
    /// How long AwaitPort waits for the port file, counted from the launch
    /// (worker bring-up includes a seeding evaluation on a cold store, so
    /// this is generous).
    double spawn_timeout_ms = 120000.0;
    double restart_backoff_ms = 200.0;      ///< base, doubles per restart
    double restart_backoff_max_ms = 5000.0;
  };

  explicit Supervisor(Options options) : options_(options) {}
  /// Terminates (TERM, then KILL) every still-running worker.
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// \brief Starts \p spec's process without waiting for it to come up;
  /// finish bring-up with AwaitPort. Launching several workers before
  /// awaiting any lets their start-up (a seeding evaluation on a cold store)
  /// overlap. Refuses a name whose worker is running or still coming up.
  /// Returns the process id.
  easytime::Result<pid_t> Launch(const WorkerSpec& spec);

  /// \brief Blocks until the named worker publishes its port, dies, or the
  /// spawn timeout (counted from its launch) expires; a timed-out worker is
  /// terminated. Returns the bound port. Re-takes the lock per poll, so a
  /// multi-second bring-up never stalls Alive/StatsJson/PortOf.
  easytime::Result<uint16_t> AwaitPort(const std::string& name);

  /// \brief Launch, then AwaitPort. A worker that fails bring-up is
  /// forgotten.
  easytime::Result<uint16_t> Spawn(const WorkerSpec& spec);

  /// True while the worker process is running (reaps zombies as a side
  /// effect, like the job pool).
  bool Alive(const std::string& name);

  /// Sends \p sig to the worker (ESRCH is not an error).
  easytime::Status Kill(const std::string& name, int sig);

  /// Graceful stop: TERM, grace period, then KILL.
  void Terminate(const std::string& name, double grace_ms = 2000.0);

  /// \brief Respawns a dead worker from its recorded spec. Refuses with
  /// Unavailable while the exponential backoff window is still open (the
  /// caller's health loop simply tries again next tick). Each restart
  /// doubles the next window up to the cap.
  easytime::Result<uint16_t> Restart(const std::string& name);

  /// Forgets a worker entirely (after Terminate) so its name can be reused.
  void Forget(const std::string& name);

  /// Last known port ("0" = never published).
  uint16_t PortOf(const std::string& name) const;

  /// Restarts performed for this worker so far.
  size_t Restarts(const std::string& name) const;

  /// Non-const: liveness polling reaps exited children.
  easytime::Json StatsJson();

 private:
  struct Worker {
    WorkerSpec spec;
    std::unique_ptr<Subprocess> proc;
    uint16_t port = 0;
    size_t restarts = 0;
    bool spawning = false;  ///< a bring-up wait (AwaitPort) is in flight
    std::chrono::steady_clock::time_point last_spawn{};
  };

  /// Launches \p w's process and marks it spawning; the caller completes
  /// bring-up with AwaitPort (which clears the flag) after releasing mu_.
  easytime::Status LaunchLocked(Worker& w);

  const Options options_;
  mutable std::mutex mu_;
  std::map<std::string, Worker> workers_;
};

}  // namespace easytime::cluster
