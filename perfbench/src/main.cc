/**
 * @file
 * perfbench: one end-to-end benchmark of the generate -> simulate ->
 * check -> evolve loop.
 *
 *   perfbench --workload explore|hunt|check-replay --seed N --seconds S
 *             --trace 0|1 [--trace-out FILE]
 *
 * --trace 0 measures the end-to-end metrics untraced; --trace 1 runs the
 * same work untraced and then traced, and reports the per-layer metrics.
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics; the exit code is non-zero when
 * the correctness gate fails. Diagnostics and provenance go to stderr.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "explore|hunt|check-replay --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseNumber(const char *key, const std::string &value, std::uint64_t max)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(value, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != value.size() || value[0] == '-' || v > max)
        usage((std::string("bad value for ") + key + ": " + value).c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        if (key == "--workload") {
            opts.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            opts.seed = parseNumber("--seed", value, UINT64_MAX);
            have_seed = true;
        } else if (key == "--seconds") {
            opts.seconds =
                static_cast<int>(parseNumber("--seconds", value, 3600));
            have_seconds = opts.seconds > 0;
        } else if (key == "--trace") {
            opts.trace = parseNumber("--trace", value, 1) == 1;
            have_trace = true;
        } else if (key == "--trace-out") {
            opts.traceOut = value;
        } else {
            usage(("unknown argument " + key).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds (> 0) and --trace are required");
    opts.threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    return opts;
}

void
printProvenance(const Options &opts)
{
    char date[32];
    const std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
    std::fprintf(stderr,
                 "perfbench: provenance {\"workload\": \"%s\", \"seed\": %llu, "
                 "\"seconds\": %d, \"trace\": %d, \"cores\": %u, "
                 "\"threads\": %u, \"build_type\": \"%s\", \"compiler\": "
                 "\"%s\", \"date\": \"%s\"}\n",
                 opts.workload.c_str(), (unsigned long long)opts.seed,
                 opts.seconds, opts.trace ? 1 : 0,
                 std::thread::hardware_concurrency(), opts.threads,
                 PERFBENCH_BUILD_TYPE, __VERSION__, date);
}

/** Write every span as CSV: worker,id,parent,name,start_s,end_s. */
void
writeTrace(const Report &report, const std::string &path)
{
    std::ofstream out(path);
    out << "worker,id,parent,name,start_s,end_s\n";
    out.precision(17);
    for (std::size_t w = 0; w < report.tracers.size(); ++w) {
        const auto &spans = report.tracers[w].spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            out << w << ',' << i << ',' << spans[i].parent << ','
                << spans[i].name << ',' << spans[i].start << ','
                << spans[i].end << '\n';
        }
    }
    if (!out)
        std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    printProvenance(opts);
    installCrashReport();

    Report report;
    try {
        if (opts.workload == "explore")
            report = runExplore(opts);
        else if (opts.workload == "hunt")
            report = runHunt(opts);
        else if (opts.workload == "check-replay")
            report = runCheckReplay(opts);
        else
            usage(("unknown workload " + opts.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 1;
    }
    if (report.attempted == 0)
        report.gate.fail("no operation attempted");
    for (const Metric &m : report.metrics) {
        if (!std::isfinite(m.value))
            report.gate.fail("metric " + m.name + " is not finite");
    }
    if (!opts.traceOut.empty() && opts.trace)
        writeTrace(report, opts.traceOut);

    const std::size_t shown = std::min<std::size_t>(report.gate.failures.size(), 20);
    for (std::size_t i = 0; i < shown; ++i)
        std::fprintf(stderr, "perfbench: INCORRECT: %s\n",
                     report.gate.failures[i].c_str());
    if (report.gate.failures.size() > shown)
        std::fprintf(stderr, "perfbench: ... and %zu more gate failures\n",
                     report.gate.failures.size() - shown);

    std::string json = "{\"correct\": ";
    json += report.gate.ok() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return report.gate.ok() ? 0 : 1;
}
