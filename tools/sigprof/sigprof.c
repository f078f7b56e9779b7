/* SIGPROF sampling profiler, loaded with LD_PRELOAD.
 *
 *   SIGPROF_DIR=out SIGPROF_EXE=fleet_daemon LD_PRELOAD=libsigprof.so cmd
 *
 * SIGPROF_HZ times per second of process CPU time (ITIMER_PROF, default
 * 100) the interrupted thread appends one record to out/sigprof.<pid>.bin:
 * a pointer-sized slot holding the uint32 count n of what follows, the
 * interrupted pc, then n - 1 backtrace() frames.
 * out/sigprof.<pid>.maps is a copy of /proc/self/maps, so report.py can
 * resolve each process against its own mappings.  SIGPROF_EXE profiles
 * only an executable of that name (children inherit LD_PRELOAD);
 * SIGPROF_DELAY_MS skips that much process CPU time of set-up before the
 * first sample.  Nothing happens without SIGPROF_DIR. */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <limits.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

static int out_fd = -1;

static void on_prof(int sig, siginfo_t* info, void* ctx) {
  (void)sig, (void)info;
  void* rec[66];
  const int saved = errno;
#if defined(__x86_64__)
  rec[1] = (void*)((ucontext_t*)ctx)->uc_mcontext.gregs[REG_RIP];
#else
  rec[1] = 0, (void)ctx;
#endif
  const uint32_t n = 1 + (uint32_t)backtrace(rec + 2, 64);
  rec[0] = 0;
  memcpy(rec, &n, sizeof n);
  if (write(out_fd, rec, sizeof(void*) * (1 + n)) < 0) { /* sample lost */ }
  errno = saved;
}

__attribute__((constructor)) static void sigprof_start(void) {
  const char* dir = getenv("SIGPROF_DIR");
  const char* exe = getenv("SIGPROF_EXE");
  char self[PATH_MAX] = {0}, path[PATH_MAX + 64], buf[4096];
  if (dir == NULL || readlink("/proc/self/exe", self, sizeof self - 1) < 0) return;
  const char* base = strrchr(self, '/') ? strrchr(self, '/') + 1 : self;
  if (exe != NULL && strcmp(base, exe) != 0) return;
  snprintf(path, sizeof path, "%s/sigprof.%d.maps", dir, (int)getpid());
  const int in = open("/proc/self/maps", O_RDONLY);
  const int maps = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  for (ssize_t r; in >= 0 && maps >= 0 && (r = read(in, buf, sizeof buf)) > 0;) {
    if (write(maps, buf, (size_t)r) != r) break;
  }
  if (in >= 0) close(in);
  if (maps >= 0) close(maps);
  snprintf(path, sizeof path, "%s/sigprof.%d.bin", dir, (int)getpid());
  out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (out_fd < 0) return;
  void* warm[1];
  backtrace(warm, 1); /* loads the unwinder outside the signal handler */
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  const char* hz_env = getenv("SIGPROF_HZ");
  const char* delay_env = getenv("SIGPROF_DELAY_MS");
  const long hz = hz_env ? atol(hz_env) : 100;
  const long delay_us = delay_env ? atol(delay_env) * 1000 : 0;
  const long period_us = 1000000 / (hz > 0 ? hz : 100);
  const long first_us = delay_us > 0 ? delay_us : period_us;
  struct itimerval it = {{period_us / 1000000, period_us % 1000000},
                         {first_us / 1000000, first_us % 1000000}};
  setitimer(ITIMER_PROF, &it, NULL);
}
