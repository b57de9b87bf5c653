/**
 * @file
 * The check-replay workload: real witnesses captured in set-up from
 * clean MESI cells, each replayed under all five models
 * through both check paths. The timed section simulates nothing.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "loop.hh"
#include "metrics.hh"

namespace perfbench {

namespace {

constexpr std::size_t kCaptureCells = 4;
/** 4 cells x 64 test-runs x 4 iterations: about 1000 witnesses. */
constexpr std::uint64_t kCaptureRuns = 64;
/** Replay passes per --seconds on 4 cores of the reference box. */
constexpr double kPassesPerSecond = 2.0;
const char *const kModels[] = {"sc", "tso", "pso", "rmo", "rc"};
constexpr int kSetups = 3;
/**
 * Capture simulates clean MESI only. Clean TSO-CC is not clean: about
 * 1 cell in 100 (150 test-runs) reports a tso violation or crashes in
 * its L2 (perfbench/README.md, "Known defects"), and a capture cell
 * that does either fails the gate.
 */
constexpr const char *kCaptureProtocol = "mesi";

struct Pool
{
    std::vector<CapturedWitness> witnesses;
    std::vector<LoopResult> cells;
    /** Capture wall per cell (thread-seconds) and for the whole set-up. */
    double cellSeconds = 0.0;
    double setupSeconds = 0.0;
    std::uint64_t events = 0;
};

Pool
capture(const Options &opts, std::vector<Tracer> *tracers, Gate &gate)
{
    Pool pool;
    std::vector<std::vector<CapturedWitness>> per_cell(kCaptureCells);
    std::vector<double> walls(kCaptureCells);
    pool.cells.resize(kCaptureCells);
    const double t0 = nowSeconds();
    parallelFor(kCaptureCells, opts.threads, [&](std::size_t i, unsigned w) {
        CampaignSpec spec;
        spec.protocol = kCaptureProtocol;
        spec.seed = cellSeed(opts.seed, i);
        spec.maxTestRuns = kCaptureRuns;
        LoopOptions lo;
        lo.tracer = tracers != nullptr ? &(*tracers)[w] : nullptr;
        lo.onWitness = [&per_cell, i](const mc::ExecWitness &ew) {
            per_cell[i].emplace_back();
            captureWitness(ew, per_cell[i].back());
        };
        noteInFlight("capture cell " + spec.toString());
        const double c0 = nowSeconds();
        pool.cells[i] = runLoop(spec, lo);
        walls[i] = nowSeconds() - c0;
    });
    pool.setupSeconds = nowSeconds() - t0;
    for (std::size_t i = 0; i < kCaptureCells; ++i) {
        const LoopResult &c = pool.cells[i];
        if (!c.error.empty() || c.bugFound) {
            gate.fail("capture cell " + std::to_string(i) + " is not clean: " +
                      (c.error.empty() ? c.detail : c.error));
        }
        pool.cellSeconds += walls[i];
        for (CapturedWitness &w : per_cell[i]) {
            pool.events += w.size();
            pool.witnesses.push_back(std::move(w));
        }
    }
    return pool;
}

struct PassResult
{
    Gate gate;
    ReplayGate replay;
    std::vector<double> steps;
    double seconds = 0.0;
    double checkSeconds = 0.0;
    std::uint64_t failed = 0;
    std::uint64_t violations = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheLookups = 0;
};

/** Check every witness once under every model on both paths. */
PassResult
replayPass(const Pool &pool, Tracer *tracer)
{
    PassResult out;
    std::vector<std::unique_ptr<ModelCheckers>> checkers;
    for (const char *model : kModels)
        checkers.push_back(std::make_unique<ModelCheckers>(model));
    mc::ExecWitness scratch;
    out.steps.reserve(pool.witnesses.size() * std::size(kModels) * 2);

    Scope pass(tracer, "pass");
    const double p0 = nowSeconds();
    for (std::size_t i = 0; i < pool.witnesses.size(); ++i) {
        for (auto &mcs : checkers) {
            try {
                const double t0 = nowSeconds();
                const mc::CheckResult posthoc =
                    checkPosthoc(pool.witnesses[i], *mcs, scratch, tracer);
                const double t1 = nowSeconds();
                const mc::CheckResult streaming =
                    checkStreaming(pool.witnesses[i], *mcs, scratch, tracer);
                const double t2 = nowSeconds();
                out.steps.push_back(t1 - t0);
                out.steps.push_back(t2 - t1);
                out.checkSeconds += t2 - t0;
                out.violations += posthoc.ok() ? 0 : 1;
                out.replay.add(i, mcs->model, posthoc, streaming, out.gate);
            } catch (const std::exception &e) {
                out.failed += 2;
                out.gate.fail("witness " + std::to_string(i) + " under " +
                              mcs->model + " threw: " + e.what());
            }
        }
    }
    out.seconds = nowSeconds() - p0;
    out.replay.finish(out.gate);
    for (const auto &mcs : checkers) {
        const auto [hits, lookups] = mcs->cacheStats();
        out.cacheHits += hits;
        out.cacheLookups += lookups;
    }
    return out;
}

std::vector<PassResult>
replayPasses(const Options &opts, const Pool &pool,
             std::vector<Tracer> *tracers)
{
    std::vector<PassResult> passes(
        static_cast<std::size_t>(opts.seconds * kPassesPerSecond + 0.5));
    if (passes.empty())
        passes.resize(1);
    parallelFor(passes.size(), opts.threads, [&](std::size_t p, unsigned w) {
        noteInFlight("replay pass " + std::to_string(p));
        passes[p] = replayPass(pool, tracers != nullptr ? &(*tracers)[w]
                                                        : nullptr);
    });
    return passes;
}

/** Merge the passes' gates into @p gate, each distinct failure once. */
void
mergeGates(const std::vector<PassResult> &passes, Gate &gate)
{
    for (const PassResult &p : passes) {
        for (const std::string &f : p.gate.failures) {
            if (std::find(gate.failures.begin(), gate.failures.end(), f) ==
                gate.failures.end())
                gate.failures.push_back(f);
        }
    }
}

} // namespace

Report
runCheckReplay(const Options &opts)
{
    Report report;
    // Set up kSetups times and report the median, so set-up time is as
    // steady as the timed section. Capture is deterministic per seed.
    const Pool pool = capture(opts, nullptr, report.gate);
    std::vector<double> setups{pool.setupSeconds};
    for (int i = 1; i < kSetups; ++i) {
        const Pool again = capture(opts, nullptr, report.gate);
        setups.push_back(again.setupSeconds);
        if (again.witnesses.size() != pool.witnesses.size() ||
            again.events != pool.events)
            report.gate.fail("witness capture is not deterministic");
    }
    const std::vector<PassResult> passes = replayPasses(opts, pool, nullptr);
    mergeGates(passes, report.gate);

    std::vector<double> steps;
    double step_sum = 0.0, pass_sum = 0.0;
    for (const PassResult &p : passes) {
        steps.insert(steps.end(), p.steps.begin(), p.steps.end());
        step_sum += p.checkSeconds;
        pass_sum += p.seconds;
        report.failed += p.failed;
    }
    report.attempted = passes.size() * pool.witnesses.size() *
                       std::size(kModels) * 2;
    std::fprintf(stderr,
                 "perfbench: %zu witnesses (%llu events), %zu passes, %zu "
                 "checks; step_ms_p99 is the 99th percentile of %zu samples "
                 "(%zu beyond it); sc flagged %llu pairs per pass\n",
                 pool.witnesses.size(), (unsigned long long)pool.events,
                 passes.size(), steps.size(), steps.size(), steps.size() / 100,
                 (unsigned long long)passes[0].replay.scFlagged());

    if (!opts.trace) {
        report.add("steps_per_s", static_cast<double>(steps.size()) / step_sum,
                   "1/s");
        report.add("step_ms_p50", 1e3 * percentile(steps, 50.0), "ms");
        report.add("step_ms_p99", 1e3 * percentile(steps, 99.0), "ms");
        report.add("cell_s", pass_sum / static_cast<double>(passes.size()),
                   "s");
        report.add("setup_s", median(setups), "s");
        report.add("peak_rss_mb", peakRssMb(), "MiB");
        return report;
    }

    // Traced pass over the same work. Tracing must not change what the
    // capture cells simulate or what the checks decide.
    report.tracers.resize(opts.threads);
    const Pool traced_pool = capture(opts, &report.tracers, report.gate);
    const std::vector<PassResult> traced =
        replayPasses(opts, traced_pool, &report.tracers);
    mergeGates(traced, report.gate);
    for (std::size_t i = 0; i < kCaptureCells; ++i) {
        const LoopResult &u = pool.cells[i], &t = traced_pool.cells[i];
        if (u.testRuns != t.testRuns || u.simEvents != t.simEvents ||
            u.protocolCoverage != t.protocolCoverage) {
            report.gate.fail("traced capture cell " + std::to_string(i) +
                             " simulated differently from the untraced one");
        }
    }
    if (traced_pool.witnesses.size() != pool.witnesses.size() ||
        traced_pool.events != pool.events) {
        report.gate.fail("traced capture recorded a different witness pool");
    }
    LayerTotals totals;
    totals.cells = traced_pool.cells;
    totals.checkSeconds = 0.0;
    totals.untracedSeconds = pool.cellSeconds + pass_sum;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const PassResult &p = traced[i];
        if (p.violations != passes[i].violations)
            report.gate.fail("traced replay verdicts differ from untraced");
        totals.checkSeconds += p.checkSeconds;
        totals.replayEvents += pool.events * std::size(kModels);
        totals.violations += p.violations;
        totals.cacheHits += p.cacheHits;
        totals.cacheLookups += p.cacheLookups;
    }
    totals.checkEvents = totals.replayEvents;
    addLayerMetrics(report, totals);
    return report;
}

} // namespace perfbench
