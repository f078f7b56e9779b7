// The fleet daemon under test, seen from outside: a child process started
// with posix_spawn and observed only through its stdout, its socket and
// /proc/<pid>.
#ifndef BENCH_E2E_DAEMON_HPP
#define BENCH_E2E_DAEMON_HPP

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

/// A running fleet_daemon.  The destructor SIGKILLs and reaps a daemon
/// that was not stopped, so no error path leaves a process behind.
class DaemonProcess {
 public:
  /// Spawns `exe args...` with stdout on a pipe.  Throws on failure.
  DaemonProcess(const std::string& exe, const std::vector<std::string>& args);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Blocks until the daemon prints its "listening on" line.  Throws if it
  /// exits first or the timeout passes.
  void wait_listening(std::chrono::milliseconds timeout);

  /// SIGTERM, then waits for the graceful shutdown (SIGKILL after
  /// `timeout`).  Returns the daemon's exit status; idempotent.
  int stop(std::chrono::milliseconds timeout = std::chrono::seconds(60));

  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  bool read_available(int wait_ms);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int status_ = -1;
  std::string output_;
};

/// One reading of /proc/<pid>: process CPU, memory, I/O and per-task CPU
/// and context switches.
struct ProcSample {
  double cpu_s = 0.0;  ///< utime + stime of the whole process (incl. exited threads)
  std::map<pid_t, double> task_cpu_s;
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary, summed over live tasks
  double vm_rss_mib = 0.0;
  double vm_hwm_mib = 0.0;
  std::uint64_t syscr = 0;  ///< read-type syscalls
  std::uint64_t wchar = 0;  ///< bytes written
};

/// Reads /proc/<pid>/{stat,status,io} and task/*/{stat,status}.  Throws
/// when the process is gone.
[[nodiscard]] ProcSample sample_proc(pid_t pid);

/// Live task ids of a process, sorted.
[[nodiscard]] std::vector<pid_t> list_tasks(pid_t pid);

}  // namespace bench

#endif  // BENCH_E2E_DAEMON_HPP
