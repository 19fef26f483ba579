// Measurement plumbing shared by every perfbench workload: clocks, per-thread
// CPU by kernel thread id, RSS, order statistics, the trace digest, and the
// one-JSON-line result the benchmark prints last.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test-only: shrink every input so a run takes well under a second of
  /// measuring (the benchmark's own tests use it).
  bool tiny = false;
  /// Test-only: corrupt the event books before the correctness gate, which
  /// must then fail the run.
  bool break_books = false;
};

// ---------------------------------------------------------------- clocks

uint64_t WallNs();        ///< CLOCK_MONOTONIC
uint64_t ThreadCpuNs();   ///< CLOCK_THREAD_CPUTIME_ID of the caller
uint64_t ProcessCpuNs();  ///< CLOCK_PROCESS_CPUTIME_ID (all threads, user+sys)
/// CPU time of thread `tid` of this process, in ns (0 if it has exited).
uint64_t TidCpuNs(pid_t tid);
/// Sleeps until CLOCK_MONOTONIC reaches `deadline_ns` (no-op if past).
void SleepUntilNs(uint64_t deadline_ns);
/// Lets this thread's timed sleeps wake within ~1 µs instead of the default
/// 50 µs slack (the fixed-schedule loops need it).
void TightenTimerSlack();

// ---------------------------------------------------------------- threads

/// Kernel thread ids of this process, sorted.
std::vector<pid_t> ListTids();
/// Ids in `after` that are not in `before` (both sorted).
std::vector<pid_t> NewTids(const std::vector<pid_t>& before,
                           const std::vector<pid_t>& after);
/// CPUs this thread may run on (sched_getaffinity), at least one entry.
std::vector<int> AllowedCpus();
/// Restricts the calling thread to `cpus`.
void RunOnCpus(const std::vector<int>& cpus);
/// Restricts thread `tid` of this process (0: the calling thread) to `cpu`.
void PinThread(pid_t tid, int cpu);
/// Sum of `TidCpuNs` over `tids`.
uint64_t SumTidCpuNs(const std::vector<pid_t>& tids);

// ---------------------------------------------------------------- memory

/// Resident set size of this process in bytes (/proc/self/statm).
uint64_t RssBytes();

// ---------------------------------------------------------------- stats

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// FNV-1a over a key sequence (the printed trace digest).
uint64_t DigestKeys(const std::vector<uint32_t>& keys, uint64_t seed);

// ---------------------------------------------------------------- result

/// Named metrics plus the run's verdict, printed as the final stdout line:
/// {"correct": b, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a correctness failure (printed to stderr immediately).
  void Fail(const std::string& why);
  bool correct() const { return failures_ == 0; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t failures_ = 0;
};

/// Prints an informational line (prefixed "# ") to stdout.
void Info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
