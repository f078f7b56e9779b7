#include "daemon.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace bench {

using Clock = std::chrono::steady_clock;

DaemonProcess::DaemonProcess(const std::string& exe,
                             const std::vector<std::string>& args) {
  int fds[2];
  // Close-on-exec, so a later daemon never inherits an earlier one's pipe;
  // dup2 clears the flag on the child's stdout.
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2() failed");
  std::vector<std::string> argv_store;
  argv_store.push_back(exe);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const int rc =
      ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    pid_ = -1;
    throw std::runtime_error("cannot start " + exe + ": " + std::strerror(rc));
  }
  out_fd_ = fds[0];
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0 && status_ < 0) {
    ::kill(pid_, SIGKILL);
    int st = 0;
    while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
    }
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool DaemonProcess::read_available(int wait_ms) {
  pollfd pfd{out_fd_, POLLIN, 0};
  if (::poll(&pfd, 1, wait_ms) <= 0) return true;
  char buf[4096];
  const ssize_t n = ::read(out_fd_, buf, sizeof buf);
  if (n <= 0) return false;  // EOF: the daemon closed stdout (exited)
  output_.append(buf, static_cast<std::size_t>(n));
  return true;
}

void DaemonProcess::wait_listening(std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (output_.find("listening on") == std::string::npos) {
    if (Clock::now() >= deadline) {
      throw std::runtime_error("fleet_daemon did not start listening");
    }
    if (!read_available(20)) {
      throw std::runtime_error("fleet_daemon exited before listening: " +
                               output_);
    }
  }
  // The line is complete once its newline has arrived.
  while (output_.find('\n', output_.find("listening on")) == std::string::npos) {
    if (!read_available(20) || Clock::now() >= deadline) break;
  }
}

int DaemonProcess::stop(std::chrono::milliseconds timeout) {
  if (pid_ <= 0 || status_ >= 0) return status_;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    int st = 0;
    const pid_t r = ::waitpid(pid_, &st, WNOHANG);
    if (r == pid_) {
      status_ = WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
      break;
    }
    if (Clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
      }
      status_ = 128 + SIGKILL;
      break;
    }
    read_available(10);
  }
  // The daemon has exited: collect its shutdown lines up to EOF.
  for (;;) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 0) <= 0 || !read_available(0)) break;
  }
  return status_;
}

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// utime + stime (seconds) from a /proc stat line.  Fields after the
/// parenthesized command: state is field 3, utime 14, stime 15.
double stat_cpu_s(const std::string& stat) {
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("bad /proc stat");
  std::istringstream in(stat.substr(close + 2));
  std::string tok;
  double utime = 0.0;
  double stime = 0.0;
  for (int field = 3; field <= 15 && (in >> tok); ++field) {
    if (field == 14) utime = std::stod(tok);
    if (field == 15) stime = std::stod(tok);
  }
  static const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return (utime + stime) / ticks;
}

std::uint64_t field_u64(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + key.size()));
}

}  // namespace

std::vector<pid_t> list_tasks(pid_t pid) {
  std::vector<pid_t> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) throw std::runtime_error("cannot list " + dir);
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
      out.push_back(static_cast<pid_t>(std::stol(e->d_name)));
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  s.cpu_s = stat_cpu_s(slurp(base + "/stat"));
  const std::string status = slurp(base + "/status");
  s.vm_rss_mib = static_cast<double>(field_u64(status, "VmRSS:")) / 1024.0;
  s.vm_hwm_mib = static_cast<double>(field_u64(status, "VmHWM:")) / 1024.0;
  const std::string io = slurp(base + "/io");
  s.syscr = field_u64(io, "syscr:");
  s.wchar = field_u64(io, "wchar:");
  for (const pid_t tid : list_tasks(pid)) {
    const std::string tdir = base + "/task/" + std::to_string(tid);
    try {
      s.task_cpu_s[tid] = stat_cpu_s(slurp(tdir + "/stat"));
      const std::string tstatus = slurp(tdir + "/status");
      s.ctx_switches += field_u64(tstatus, "\nvoluntary_ctxt_switches:") +
                        field_u64(tstatus, "nonvoluntary_ctxt_switches:");
    } catch (const std::exception&) {
      // The task exited between the listing and the read.
    }
  }
  return s;
}

}  // namespace bench
