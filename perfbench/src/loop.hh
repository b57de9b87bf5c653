/**
 * @file
 * The benchmark's two ways of running a campaign cell, and witness
 * capture/replay.
 *
 *  - runTimedCell(): the untraced path, CampaignRunner::runOne. Its
 *    cancel hook is polled before every test-run, so the gaps between
 *    polls time each test-run from outside at the cost of one clock
 *    read.
 *  - runLoop(): the traced path, a hand loop over the layers' public
 *    calls (TestSource::next, Workload::runTest,
 *    AdaptiveCoverageFitness::evaluate, TestSource::report), built the
 *    way VerificationHarness builds a cell so its deterministic
 *    counters match runOne's exactly.
 */

#ifndef PERFBENCH_LOOP_HH
#define PERFBENCH_LOOP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/result.hh"
#include "campaign/spec.hh"
#include "memconsistency/checker.hh"
#include "memconsistency/streaming_checker.hh"
#include "trace.hh"

namespace perfbench {

namespace mc = mcversi::mc;
using mcversi::campaign::CampaignResult;
using mcversi::campaign::CampaignSpec;

/** One untraced cell, timed from outside. */
struct TimedCell
{
    CampaignResult result;
    /** runOne call to the first test-run: spec check and construction. */
    double setupSeconds = 0.0;
    /** runOne call to return. */
    double totalSeconds = 0.0;
    /** Host seconds of each test-run, in order. */
    std::vector<double> stepSeconds;
};

TimedCell runTimedCell(const CampaignSpec &spec);

/** A recorded event, enough to re-record it into a fresh witness. */
struct RecordedEvent
{
    mcversi::Pid pid = 0;
    std::int32_t poi = 0;
    mcversi::Addr addr = 0;
    mcversi::WriteVal value = 0;
    /** Value a write replaced (unused for reads). */
    mcversi::WriteVal overwritten = 0;
    bool read = false;
    bool rmw = false;
};

/** A witness's recorded events in record order (init events excluded). */
using CapturedWitness = std::vector<RecordedEvent>;

/** Copy the recorded events of a finalized full-mode witness. */
void captureWitness(const mc::ExecWitness &ew, CapturedWitness &out);

/**
 * The checkers a default campaign builds for one model: a post-hoc
 * Checker and a streaming Checker plus its StreamingChecker sink, each
 * Checker with the campaign's default verdict cache.
 */
struct ModelCheckers
{
    explicit ModelCheckers(const std::string &model);

    std::string model;
    mc::Checker posthoc;
    mc::Checker streaming;
    mc::StreamingChecker sink;

    /** Verdict-cache (hits, lookups) over both checkers. */
    std::pair<std::uint64_t, std::uint64_t> cacheStats() const;
};

/** record -> finalize -> Checker::check, into @p scratch. */
mc::CheckResult checkPosthoc(const CapturedWitness &w, ModelCheckers &mcs,
                             mc::ExecWitness &scratch, Tracer *tracer);

/** record through the StreamingChecker sink -> Checker::checkStreamed. */
mc::CheckResult checkStreaming(const CapturedWitness &w, ModelCheckers &mcs,
                               mc::ExecWitness &scratch, Tracer *tracer);

/** Deterministic counters and outcome of a hand-loop cell. */
struct LoopResult
{
    std::string error;
    std::uint64_t testRuns = 0;
    bool bugFound = false;
    std::string detail;
    std::uint64_t testRunsToBug = 0;
    std::uint64_t eventsUntilDetection = 0;
    std::uint64_t simEvents = 0;
    std::uint64_t messages = 0;
    std::uint64_t ticks = 0;
    std::uint64_t events = 0;
    std::uint64_t watchdogAborts = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    double protocolCoverage = 0.0;
    /** Witness events the per-test probe replayed (probe mode). */
    std::uint64_t probeEvents = 0;
};

struct LoopOptions
{
    /** Spans go here; null runs the loop untraced. */
    Tracer *tracer = nullptr;
    /**
     * Traced explore/hunt: after every fourth test-run, re-check its
     * last clean iteration's witness on both check paths outside the
     * simulate span, which times record, finalize and each check path
     * on the workload's own witnesses. Reported, never subtracted.
     */
    ModelCheckers *probe = nullptr;
    /** Called with every finalized iteration witness (capture). */
    std::function<void(const mc::ExecWitness &)> onWitness;
};

LoopResult runLoop(const CampaignSpec &spec, const LoopOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_LOOP_HH
