/**
 * @file
 * Shared types of the end-to-end benchmark: run options, the result
 * every workload returns, the worker pool and the statistics helpers.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "gate.hh"
#include "trace.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /** Worker threads: at most 4, the load of one process on 4 cores. */
    unsigned threads = 1;
    /** Where a traced run writes its spans (empty: do not write). */
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Report
{
    Gate gate;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics (untraced) or per-layer metrics (traced). */
    std::vector<Metric> metrics;
    /** Tracers of the traced pass, one per worker thread. */
    std::vector<Tracer> tracers;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

Report runExplore(const Options &opts);
Report runHunt(const Options &opts);
Report runCheckReplay(const Options &opts);

/** Seed of cell @p index of a run seeded with @p seed (SplitMix64). */
inline std::uint64_t
cellSeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) >> 16;
}

/**
 * Run fn(task, worker) for every task in [0, n) on @p threads workers,
 * tasks handed out in index order. Results must be stored by task
 * index so they never depend on the interleaving.
 */
inline void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t, unsigned)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(threads);
    auto worker = [&](unsigned w) {
        try {
            for (std::size_t i; (i = next.fetch_add(1)) < n;)
                fn(i, w);
        } catch (...) {
            errors[w] = std::current_exception();
            next = n;
        }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 1; w < threads; ++w)
        pool.emplace_back(worker, w);
    worker(0);
    for (std::thread &t : pool)
        t.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

/**
 * Name the work the calling thread is about to run. If the program
 * crashes (SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT) on this thread, the
 * crash report installed by installCrashReport() prints it to stderr.
 */
void noteInFlight(const std::string &what);
void installCrashReport();

/** Linear-interpolated percentile @p p in [0, 100] (sorts @p v). */
double percentile(std::vector<double> &v, double p);

double median(std::vector<double> v);

/** Peak resident set size of this process (VmHWM) in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
