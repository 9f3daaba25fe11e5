#include "proc.h"

#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace servebench {

namespace {

double TimevalSeconds(const timeval& tv) {
  return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

uint64_t ReadIoSyscalls() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  uint64_t total = 0;
  while (in >> key >> value) {
    if (key == "syscr:" || key == "syscw:") total += value;
  }
  return total;
}

}  // namespace

double ReadStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return 0.0;
  std::istringstream fields(line.substr(4));
  uint64_t v[8] = {};
  for (uint64_t& f : v) fields >> f;  // user nice system idle iowait irq softirq steal
  return double(v[7]) / double(sysconf(_SC_CLK_TCK));
}

ProcCounters ProcCounters::Read() {
  ProcCounters c;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.cpu_s = TimevalSeconds(ru.ru_utime) + TimevalSeconds(ru.ru_stime);
  c.vol_ctx = uint64_t(ru.ru_nvcsw);
  c.invol_ctx = uint64_t(ru.ru_nivcsw);
  c.syscalls_rw = ReadIoSyscalls();
  c.steal_s = ReadStealSeconds();
  c.allocs = alloc::Count();
  return c;
}

ProcCounters ProcCounters::operator-(const ProcCounters& o) const {
  ProcCounters d;
  d.cpu_s = cpu_s - o.cpu_s;
  d.vol_ctx = vol_ctx - o.vol_ctx;
  d.invol_ctx = invol_ctx - o.invol_ctx;
  d.syscalls_rw = syscalls_rw - o.syscalls_rw;
  d.steal_s = steal_s - o.steal_s;
  d.allocs = allocs - o.allocs;
  return d;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

uint64_t CountSourceLines(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t lines = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) ++lines;
  }
  return lines;
}

}  // namespace servebench
