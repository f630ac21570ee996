#pragma once

/// \file procs.h
/// \brief The program's processes as the benchmark sees them from outside:
/// spawning, waiting for their port files, CPU time and peak memory read
/// from /proc, and orderly shutdown. Also the blocking line client the
/// load generator uses on each of its connections.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// fork + exec with stdout/stderr appended to \p log_path. The child dies
/// with the benchmark (PR_SET_PDEATHSIG) if the benchmark dies first.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path);

/// Polls for a port file the program publishes once it serves; false when
/// \p pid exits or \p timeout_s passes first.
bool WaitForPortFile(const std::string& path, pid_t pid, double timeout_s,
                     uint16_t* port);

/// User + system CPU of a live process in milliseconds (-1 if gone).
double ProcessCpuMs(pid_t pid);

/// VmHWM (peak resident set) of a live process in MB (-1 if gone).
double ProcessPeakRssMb(pid_t pid);

/// Live processes whose parent is \p parent.
std::vector<pid_t> ChildrenOf(pid_t parent);

/// SIGTERM, then SIGKILL after \p grace_s; reaps each pid this process
/// spawned. Processes spawned by others are waited for until they vanish.
void Terminate(const std::vector<pid_t>& own, const std::vector<pid_t>& foreign,
               double grace_s);

/// \brief One loopback connection speaking the line protocol.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(uint16_t port);
  /// Sends \p line (newline-terminated) and reads one response line into
  /// \p response (without the newline). False on a transport failure.
  bool Call(const std::string& line, std::string* response);

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Connects, sends one ping, and closes; true on an ok reply.
bool Ping(uint16_t port);

}  // namespace perfbench
