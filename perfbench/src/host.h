// Host-side measurements read from the kernel: process CPU time, peak
// resident memory, per-thread scheduler statistics and the machine-wide
// steal share (time the hypervisor ran someone else while our vCPUs were
// runnable), so that runs taken under steal can be recognised.
#pragma once

#include <cstdint>

namespace perfbench {

/// CPU time of the whole process (all threads), nanoseconds.
int64_t ProcessCpuNs();

/// Peak resident set size of the process, MiB.
double PeakRssMb();

/// Online CPUs.
int NumCpus();

/// Kernel thread id of the calling thread.
int CurrentTid();

/// Live threads in this process.
int ThreadCount();

/// /proc/self/task/<tid>/schedstat: time on a CPU and time runnable but
/// waiting in a run queue, nanoseconds. Zero when unreadable.
struct SchedStat {
  int64_t run_ns = 0;
  int64_t wait_ns = 0;
};
SchedStat ReadSchedStat(int tid);

/// Aggregate jiffies from the first line of /proc/stat.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();

/// Steal jiffies / all jiffies between two readings (0 when no time
/// passed).
double StealShare(const CpuJiffies& before, const CpuJiffies& after);

}  // namespace perfbench
