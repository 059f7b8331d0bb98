#include "support/host.hpp"

#include <sched.h>
#include <time.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

extern char** environ;

namespace aurora_bench::host {

std::int64_t wall_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t thread_cpu_ns() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

bool scrub_env() {
    // Collect first: unsetenv edits the array being walked.
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "HAM_AURORA_", 11) == 0) {
            const char* eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq != nullptr ? std::size_t(eq - *e)
                                                 : std::strlen(*e));
        }
    }
    for (const std::string& n : names) {
        unsetenv(n.c_str());
    }
    return !names.empty();
}

int pin_to_one_cpu() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
        return -1;
    }
    int cpu = -1;
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            cpu = int(c);
        }
    }
    if (cpu < 0) {
        return -1;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(std::size_t(cpu), &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size()) {
                return line.substr(colon + 2);
            }
        }
    }
    return "unknown";
}

double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // in kB
        }
    }
    return 0.0;
}

} // namespace aurora_bench::host
