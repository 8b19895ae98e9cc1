#include "host.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <dirent.h>

namespace perfbench {

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int NumCpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

int ThreadCount() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  int n = 0;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

SchedStat ReadSchedStat(int tid) {
  SchedStat s;
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/schedstat", tid);
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return s;
  long long run = 0;
  long long wait = 0;
  if (std::fscanf(f, "%lld %lld", &run, &wait) == 2) {
    s.run_ns = run;
    s.wait_ns = wait;
  }
  std::fclose(f);
  return s;
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies j;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return j;
  // cpu user nice system idle iowait irq softirq steal guest guest_nice
  unsigned long long v[10] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n < 8) return j;
  // guest time is already folded into user, so the first eight fields
  // partition all CPU time.
  for (int i = 0; i < 8; ++i) j.total += v[i];
  j.steal = v[7];
  return j;
}

double StealShare(const CpuJiffies& before, const CpuJiffies& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

}  // namespace perfbench
