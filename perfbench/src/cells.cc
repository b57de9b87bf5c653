/**
 * @file
 * The explore and hunt workloads: campaign cells run side by side on
 * the worker threads, untraced through CampaignRunner::runOne and, in a
 * traced run, once more through the hand loop.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"
#include "campaign/spec.hh"
#include "loop.hh"
#include "metrics.hh"

namespace perfbench {

namespace {

/**
 * Work per run is a count of cells fixed by --seconds, never a time
 * budget: every count a run reports then depends on the seed alone.
 * The rates below fill about --seconds on 4 cores of the reference box.
 */
constexpr std::uint64_t kExploreRuns = 150;
constexpr double kExploreCellsPerSecond = 2.0;
constexpr std::uint64_t kHuntRuns = 1000;
constexpr double kHuntRoundsPerSecond = 1.4;
/**
 * Hunt's bugs: the MESI and protocol-agnostic ones (the latter run on
 * MESI). The TSO-CC bugs are left out because the TSO-CC L2 crashes now
 * and then, injected bug or not (perfbench/README.md, "Known defects").
 */
constexpr const char *kHuntBugs = "mesi";
/**
 * Also left out: their GA search stalls on some seeds, so no cap makes
 * a hunt that includes them free of failed operations. LQ+SM,Inv: 4 of
 * 32 seeds missed it within 5000 test-runs. Replace-Race: 4 of about 160
 * cells missed it within 1000 test-runs; 2 of 3 of them retried with
 * 4000 missed again.
 */
const char *const kStallingBugs[] = {"MESI,LQ+SM,Inv", "MESI+Replace-Race"};

/** Cells or rounds for @p seconds, at least @p floor so that step_ms_p99
 * keeps >= 10 samples beyond it (>= 1000 test-runs) on short runs. */
std::size_t
countFor(int seconds, double per_second, std::size_t floor)
{
    const auto n = static_cast<std::size_t>(seconds * per_second + 0.5);
    return std::max(n, floor);
}

std::vector<CampaignSpec>
exploreCells(const Options &opts)
{
    std::vector<CampaignSpec> specs;
    const std::size_t n = 2 * countFor(opts.seconds, kExploreCellsPerSecond / 2, 4);
    for (std::size_t i = 0; i < n; ++i) {
        CampaignSpec spec;
        spec.protocol = i % 2 == 0 ? "mesi" : "tsocc";
        spec.seed = cellSeed(opts.seed, i);
        spec.maxTestRuns = kExploreRuns;
        specs.push_back(spec);
    }
    return specs;
}

std::vector<CampaignSpec>
huntCells(const Options &opts)
{
    std::vector<CampaignSpec> specs;
    const std::size_t rounds = countFor(opts.seconds, kHuntRoundsPerSecond, 8);
    for (std::size_t r = 0; r < rounds; ++r) {
        for (const std::string &bug :
             mcversi::campaign::resolveBugList(kHuntBugs)) {
            if (std::find(std::begin(kStallingBugs), std::end(kStallingBugs),
                          bug) != std::end(kStallingBugs))
                continue;
            CampaignSpec spec;
            spec.bug = bug;
            spec.seed = cellSeed(opts.seed, specs.size());
            spec.checkMode = "streaming";
            spec.maxTestRuns = kHuntRuns;
            specs.push_back(spec);
        }
    }
    return specs;
}


bool
sameCounters(const CampaignResult &u, const LoopResult &t, std::string &why)
{
    const auto &h = u.harness;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "runs %llu/%llu, kernel events %llu/%llu, runs-to-bug %llu/%llu, "
        "coverage %.17g/%.17g, cache %llu+%llu/%llu+%llu",
        (unsigned long long)h.testRuns, (unsigned long long)t.testRuns,
        (unsigned long long)h.simEvents, (unsigned long long)t.simEvents,
        (unsigned long long)h.testRunsToBug,
        (unsigned long long)t.testRunsToBug, u.protocolCoverage,
        t.protocolCoverage, (unsigned long long)h.checkCacheHits,
        (unsigned long long)h.checkCacheMisses,
        (unsigned long long)t.cacheHits, (unsigned long long)t.cacheMisses);
    why = buf;
    return h.testRuns == t.testRuns && h.simEvents == t.simEvents &&
           h.testRunsToBug == t.testRunsToBug &&
           u.protocolCoverage == t.protocolCoverage &&
           h.checkCacheHits == t.cacheHits &&
           h.checkCacheMisses == t.cacheMisses &&
           h.bugFound == t.bugFound && h.detail == t.detail && t.error.empty();
}

/**
 * Iterations an explore cell attempted and the watchdog abandoned. A
 * clean post-hoc cell attempts every iteration of every test-run and
 * checks each completed one through exactly one verdict-cache lookup.
 * A cell that stopped at a detection is incorrect output anyway; only
 * its checked iterations are counted.
 */
std::pair<std::uint64_t, std::uint64_t>
exploreOps(const CampaignResult &c)
{
    const auto &h = c.harness;
    const std::uint64_t checked = h.checkCacheHits + h.checkCacheMisses;
    if (!c.ok() || h.bugFound)
        return {checked, 0};
    const auto iterations =
        h.testRuns * static_cast<std::uint64_t>(c.spec.iterations);
    return {iterations, iterations - checked};
}

Report
runCells(const Options &opts, const std::vector<CampaignSpec> &specs,
         bool explore)
{
    Report report;
    std::vector<TimedCell> timed(specs.size());
    parallelFor(specs.size(), opts.threads, [&](std::size_t i, unsigned) {
        noteInFlight("cell " + specs[i].toString());
        timed[i] = runTimedCell(specs[i]);
    });

    std::vector<double> steps, setups, answers;
    double untraced = 0.0;
    for (const TimedCell &c : timed) {
        const auto &h = c.result.harness;
        if (explore) {
            gateExploreCell(c.result, report.gate);
            const auto [attempted, aborted] = exploreOps(c.result);
            report.attempted += attempted;
            report.failed += aborted;
        } else {
            gateHuntCell(c.result, report.gate);
            ++report.attempted;
            if (!h.bugFound) {
                ++report.failed;
                std::fprintf(stderr, "perfbench: missed within %llu "
                             "test-runs: %s\n",
                             (unsigned long long)h.testRuns,
                             c.result.spec.toString().c_str());
            }
        }
        steps.insert(steps.end(), c.stepSeconds.begin(), c.stepSeconds.end());
        setups.push_back(c.setupSeconds);
        // cell_s: seconds from runOne's call to the cell's answer. An
        // explore cell answers when its budget is spent; a hunt cell
        // when it detects its bug, and a miss counts as a failed
        // operation instead.
        if (explore)
            answers.push_back(c.totalSeconds);
        else if (h.bugFound)
            answers.push_back(c.setupSeconds + h.wallSecondsToBug);
        untraced += c.totalSeconds;
    }
    double step_sum = 0.0;
    for (const double s : steps)
        step_sum += s;
    std::fprintf(stderr,
                 "perfbench: %zu cells, %zu test-runs; step_ms_p99 is the "
                 "99th percentile of %zu samples (%zu beyond it)\n",
                 specs.size(), steps.size(), steps.size(), steps.size() / 100);
    if (steps.size() < 1000)
        report.gate.fail("fewer than 1000 test-runs: p99 has < 10 samples "
                         "beyond it");

    if (!opts.trace) {
        double answer_sum = 0.0;
        for (const double a : answers)
            answer_sum += a;
        report.add("steps_per_s", static_cast<double>(steps.size()) / step_sum,
                   "1/s");
        report.add("step_ms_p50", 1e3 * percentile(steps, 50.0), "ms");
        report.add("step_ms_p99", 1e3 * percentile(steps, 99.0), "ms");
        report.add("cell_s", answer_sum / static_cast<double>(answers.size()),
                   "s");
        report.add("setup_s", median(setups), "s");
        report.add("peak_rss_mb", peakRssMb(), "MiB");
        return report;
    }

    // Traced pass over the same cells, then the fidelity gate: the hand
    // loop must reproduce runOne's deterministic counters exactly.
    LayerTotals totals;
    totals.cells.resize(specs.size());
    totals.untracedSeconds = untraced;
    report.tracers.resize(opts.threads);
    std::vector<std::unique_ptr<ModelCheckers>> probes;
    for (unsigned w = 0; w < opts.threads; ++w)
        probes.push_back(std::make_unique<ModelCheckers>(specs[0].model));
    parallelFor(specs.size(), opts.threads, [&](std::size_t i, unsigned w) {
        LoopOptions lo;
        lo.tracer = &report.tracers[w];
        lo.probe = probes[w].get();
        noteInFlight("traced cell " + specs[i].toString());
        totals.cells[i] = runLoop(specs[i], lo);
    });
    std::uint64_t traced_aborts = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const LoopResult &t = totals.cells[i];
        std::string why;
        if (!sameCounters(timed[i].result, t, why)) {
            report.gate.fail("traced cell " + std::to_string(i) +
                             " diverges from runOne (runOne/traced): " + why +
                             (t.error.empty() ? "" : "; " + t.error));
        }
        traced_aborts += t.watchdogAborts;
        totals.replayEvents += t.probeEvents;
        totals.violations += t.bugFound && t.detail.rfind("MCM", 0) == 0;
        totals.cacheHits += t.cacheHits;
        totals.cacheLookups += t.cacheHits + t.cacheMisses;
    }
    if (explore && traced_aborts != report.failed) {
        report.gate.fail("traced watchdog aborts " +
                         std::to_string(traced_aborts) +
                         " differ from the count inferred from runOne " +
                         std::to_string(report.failed));
    }
    addLayerMetrics(report, totals);
    return report;
}

} // namespace

Report
runExplore(const Options &opts)
{
    return runCells(opts, exploreCells(opts), true);
}

Report
runHunt(const Options &opts)
{
    return runCells(opts, huntCells(opts), false);
}

} // namespace perfbench
