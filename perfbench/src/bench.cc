#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>

#include <unistd.h>

namespace perfbench {

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(v, 50.0);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

namespace {

thread_local char inFlight[1024];

void
crashReport(int sig)
{
    static const char head[] = "perfbench: crashed while running: ";
    (void)!write(2, head, sizeof head - 1);
    (void)!write(2, inFlight, strnlen(inFlight, sizeof inFlight));
    (void)!write(2, "\n", 1);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

} // namespace

void
noteInFlight(const std::string &what)
{
    const std::size_t n = std::min(what.size(), sizeof inFlight - 1);
    std::memcpy(inFlight, what.data(), n);
    inFlight[n] = '\0';
}

void
installCrashReport()
{
    for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
        std::signal(sig, crashReport);
}

} // namespace perfbench
