#include "procs.h"

#include "minijson.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool Alive(pid_t pid) { return ::kill(pid, 0) == 0; }

bool Zombie(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string all;
  if (!std::getline(in, all)) return true;
  const size_t close = all.rfind(')');
  return close != std::string::npos && close + 2 < all.size() &&
         all[close + 2] == 'Z';
}

/// Fields 4 (ppid), 14 (utime), 15 (stime) of /proc/<pid>/stat.
bool ReadStat(pid_t pid, long* ppid, double* cpu_ticks) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string all;
  if (!std::getline(in, all)) return false;
  const size_t close = all.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream rest(all.substr(close + 2));
  std::string field;
  std::vector<std::string> f;
  while (rest >> field) f.push_back(field);
  // f[0] is field 3 (state).
  if (f.size() < 13) return false;
  if (ppid) *ppid = std::stol(f[1]);
  if (cpu_ticks) *cpu_ticks = std::stod(f[11]) + std::stod(f[12]);
  return true;
}

}  // namespace

pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> cargv;
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(127);
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  ::execv(cargv[0], cargv.data());
  ::_exit(127);
}

bool WaitForPortFile(const std::string& path, pid_t pid, double timeout_s,
                     uint16_t* port) {
  const auto t0 = Clock::now();
  while (Since(t0) < timeout_s) {
    std::ifstream in(path);
    long value = 0;
    if (in >> value && value > 0 && value < 65536) {
      *port = static_cast<uint16_t>(value);
      return true;
    }
    int status = 0;
    if (pid > 0 && ::waitpid(pid, &status, WNOHANG) == pid) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

double ProcessCpuMs(pid_t pid) {
  double ticks = 0.0;
  if (!ReadStat(pid, nullptr, &ticks)) return -1.0;
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return -1.0;
}

std::vector<pid_t> ChildrenOf(pid_t parent) {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (dirent* e = ::readdir(dir)) {
    char* end = nullptr;
    const long pid = std::strtol(e->d_name, &end, 10);
    if (end == e->d_name || *end != '\0') continue;
    long ppid = 0;
    if (ReadStat(static_cast<pid_t>(pid), &ppid, nullptr) && ppid == parent) {
      out.push_back(static_cast<pid_t>(pid));
    }
  }
  ::closedir(dir);
  return out;
}

void Terminate(const std::vector<pid_t>& own, const std::vector<pid_t>& foreign,
               double grace_s) {
  for (pid_t p : own) ::kill(p, SIGTERM);
  for (pid_t p : foreign) ::kill(p, SIGTERM);
  const auto t0 = Clock::now();
  std::vector<pid_t> left = own;
  while (!left.empty()) {
    std::vector<pid_t> still;
    for (pid_t p : left) {
      int status = 0;
      if (::waitpid(p, &status, WNOHANG) == 0) still.push_back(p);
    }
    left.swap(still);
    if (left.empty()) break;
    if (Since(t0) > grace_s) {
      for (pid_t p : left) ::kill(p, SIGKILL);
      for (pid_t p : left) ::waitpid(p, nullptr, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Not our children: their parent (the router) reaps them. Wait until
  // each is gone or a zombie, killing any that outlives the grace period.
  for (pid_t p : foreign) {
    while (Alive(p) && !Zombie(p)) {
      if (Since(t0) > grace_s) ::kill(p, SIGKILL);
      if (Since(t0) > grace_s + 5.0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineClient::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = 120;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return true;
}

bool LineClient::Call(const std::string& line, std::string* response) {
  if (fd_ < 0) return false;
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  while (true) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      response->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

bool Ping(uint16_t port) {
  LineClient c;
  std::string resp;
  JValue doc;
  std::string error;
  return c.Connect(port) &&
         c.Call("{\"id\": 0, \"endpoint\": \"ping\"}\n", &resp) &&
         ParseJson(resp, &doc, &error) && doc.Bool("ok");
}

}  // namespace perfbench
