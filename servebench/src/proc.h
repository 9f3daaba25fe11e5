#pragma once

#include <cstdint>
#include <string>

/// \file proc.h
/// \brief Process counters read from outside the program under test:
/// getrusage, /proc/self/io, /proc/stat, and (traced binary only) a counting
/// operator new.

namespace servebench {

struct ProcCounters {
  double cpu_s = 0.0;         ///< user + sys CPU time of the whole process.
  uint64_t vol_ctx = 0;       ///< voluntary context switches.
  uint64_t invol_ctx = 0;     ///< involuntary context switches.
  uint64_t syscalls_rw = 0;   ///< /proc/self/io syscr + syscw.
  double steal_s = 0.0;       ///< /proc/stat steal, all CPUs, in seconds.
  uint64_t allocs = 0;        ///< operator new calls (traced binary only).

  static ProcCounters Read();
  ProcCounters operator-(const ProcCounters& o) const;
};

/// \brief Steal time of all CPUs since boot (/proc/stat), in seconds.
double ReadStealSeconds();

/// \brief Peak resident set size of the process so far, in MB.
double PeakRssMb();

/// \brief Lines of C++ under `dir` (*.h and *.cc); 0 when unreadable.
uint64_t CountSourceLines(const std::string& dir);

namespace alloc {
/// \brief True in the traced binary, whose operator new counts calls.
bool Available();
/// \brief Start or stop counting (a relaxed flag read per allocation).
void Enable(bool on);
uint64_t Count();
}  // namespace alloc

}  // namespace servebench
