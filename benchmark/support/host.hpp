// Host-side helpers of the benchmark: clocks, CPU pinning, environment
// scrubbing and the facts recorded in every result header.
#pragma once

#include <cstdint>
#include <string>

namespace aurora_bench::host {

/// Real time, monotonic, in ns.
[[nodiscard]] std::int64_t wall_ns() noexcept;

/// CPU time consumed by the calling thread, in ns (CLOCK_THREAD_CPUTIME_ID).
/// On the simulated VH thread this excludes the time other simulated
/// processes run while the VH waits, which is what splits host cost into
/// its VH and VE parts.
[[nodiscard]] std::int64_t thread_cpu_ns() noexcept;

/// Unset every HAM_AURORA_* variable. Returns true when any was set: the
/// caller then re-executes itself so that nothing in the program latched a
/// value during static initialisation.
bool scrub_env();

/// Pin the calling thread, and so every thread it starts later, to the
/// highest-numbered CPU of its allowed set. The simulator runs one thread at
/// a time, so one CPU loses no parallelism and removes cross-core wake-ups.
/// Returns the CPU, or -1 when the affinity calls fail.
int pin_to_one_cpu();

/// "model name" of /proc/cpuinfo ("unknown" when unavailable).
[[nodiscard]] std::string cpu_model();

/// Peak resident set of this program so far, in MiB: VmHWM, which starts
/// afresh at exec. (getrusage's maxrss also counts the parent's pages the
/// process held between fork and exec.)
[[nodiscard]] double peak_rss_mib();

} // namespace aurora_bench::host
