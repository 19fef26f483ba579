// perfbench: one run of one workload.
//
//   perfbench --workload <net_hot|wide_keys|dashboard> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--break-books]
//
// Prints informational "# ..." lines, then one JSON line with the verdict
// and the metrics: the end-to-end set with --trace 0, the per-layer set
// with --trace 1. Exits 0 only when every correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <net_hot|wide_keys|dashboard> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] [--break-books]\n",
               why);
  std::exit(2);
}

perfbench::Args Parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (flag == "--break-books") {
      a.break_books = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* endp = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &endp, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &endp);
    } else if (flag == "--trace") {
      a.trace = std::strtoul(v, &endp, 10) != 0;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (endp != nullptr && *endp != '\0') Usage(("bad value for " + flag).c_str());
  }
  if (a.workload != "net_hot" && a.workload != "wide_keys" && a.workload != "dashboard") {
    Usage("--workload must be net_hot, wide_keys or dashboard");
  }
  if (!(a.seconds > 0 && a.seconds <= 600)) Usage("--seconds must be in (0, 600]");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = Parse(argc, argv);
  perfbench::Info("workload=%s seed=%llu seconds=%g trace=%d%s", args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed), args.seconds,
                  args.trace ? 1 : 0, args.tiny ? " tiny" : "");
  perfbench::Report report;
  if (args.workload == "dashboard") {
    perfbench::RunDashboard(args, &report);
  } else {
    perfbench::RunNetWorkload(args, &report);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
