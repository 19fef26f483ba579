#include "harness.h"

#include <dirent.h>
#include <sched.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace perfbench {

namespace {

uint64_t ClockNs(clockid_t id) {
  timespec ts;
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

uint64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

uint64_t TidCpuNs(pid_t tid) {
  // The kernel's per-thread CPU clock id for a thread of this process
  // (MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)): lets us read the CPU time
  // of threads the library spawned without touching the library.
  const clockid_t id = static_cast<clockid_t>((~static_cast<unsigned>(tid)) << 3) | 6;
  return ClockNs(id);
}

void SleepUntilNs(uint64_t deadline_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

std::vector<pid_t> ListTids() {
  std::vector<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    tids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<pid_t> NewTids(const std::vector<pid_t>& before,
                           const std::vector<pid_t>& after) {
  std::vector<pid_t> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

void RunOnCpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void PinThread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

uint64_t SumTidCpuNs(const std::vector<pid_t>& tids) {
  uint64_t sum = 0;
  for (pid_t t : tids) sum += TidCpuNs(t);
  return sum;
}

uint64_t RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

uint64_t DigestKeys(const std::vector<uint32_t>& keys, uint64_t seed) {
  uint64_t h = 1469598103934665603ull ^ seed;
  for (uint32_t k : keys) {
    for (int b = 0; b < 4; ++b) {
      h ^= (k >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

void Report::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& why) {
  ++failures_;
  std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", why.c_str());
}

void Report::Print() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Info(const char* fmt, ...) {
  std::fputs("# ", stdout);
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
