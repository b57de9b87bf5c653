#include "loop.hh"

#include <memory>
#include <stdexcept>

#include "campaign/registry.hh"
#include "campaign/runner.hh"
#include "gp/fitness.hh"
#include "host/harness.hh"
#include "host/workload.hh"
#include "memconsistency/models/engine.hh"
#include "sim/system.hh"

namespace perfbench {

namespace campaign = mcversi::campaign;
namespace host = mcversi::host;

constexpr std::uint64_t kProbeEvery = 4;

TimedCell
runTimedCell(const CampaignSpec &spec)
{
    TimedCell cell;
    // The harness polls the cancel hook before every test-run and once
    // more when the budget is spent, so consecutive polls bracket one
    // test-run (next, simulate, check, fitness, report).
    std::vector<double> polls;
    polls.reserve(static_cast<std::size_t>(spec.maxTestRuns) + 2);
    const double t0 = nowSeconds();
    cell.result = campaign::CampaignRunner::runOne(spec, 1, [&polls] {
        polls.push_back(nowSeconds());
        return false;
    });
    const double t1 = nowSeconds();
    cell.totalSeconds = t1 - t0;
    cell.setupSeconds = (polls.empty() ? t1 : polls.front()) - t0;
    for (std::size_t i = 1; i < polls.size(); ++i)
        cell.stepSeconds.push_back(polls[i] - polls[i - 1]);
    // A detection stops the loop without a final poll: the last
    // test-run ends when runOne returns.
    if (!polls.empty() && cell.stepSeconds.size() < cell.result.harness.testRuns)
        cell.stepSeconds.push_back(t1 - polls.back());
    return cell;
}

void
captureWitness(const mc::ExecWitness &ew, CapturedWitness &out)
{
    out.clear();
    // Writes pair with the overwrite log in record order; init events
    // are created by finalize() after every recorded event.
    const auto &overwrites = ew.overwrites();
    std::size_t next_write = 0;
    for (const mc::Event &ev : ew.events()) {
        if (ev.isInit())
            continue;
        RecordedEvent rec;
        rec.pid = ev.iiid.pid;
        rec.poi = ev.iiid.poi;
        rec.addr = ev.addr;
        rec.value = ev.value;
        rec.read = ev.isRead();
        rec.rmw = ev.rmw;
        if (!rec.read)
            rec.overwritten = overwrites.at(next_write++).second;
        out.push_back(rec);
    }
}

namespace {

void
record(const CapturedWitness &w, mc::ExecWitness &ew)
{
    for (const RecordedEvent &e : w) {
        if (e.read)
            ew.recordRead(e.pid, e.poi, e.addr, e.value, e.rmw);
        else
            ew.recordWrite(e.pid, e.poi, e.addr, e.value, e.overwritten,
                           e.rmw);
    }
}

const mc::ModelProfile &
profileOf(const mc::Checker &checker)
{
    const auto *model =
        dynamic_cast<const mc::ProfileModel *>(&checker.arch());
    if (model == nullptr)
        throw std::invalid_argument("model " + checker.arch().name() +
                                    " has no streaming checker");
    return model->profile();
}

} // namespace

ModelCheckers::ModelCheckers(const std::string &name)
    : model(name), posthoc(mc::makeModel(name)),
      streaming(mc::makeModel(name)), sink(profileOf(streaming))
{
    posthoc.enableVerdictCache({.capacity = CampaignSpec{}.checkCache});
    streaming.enableVerdictCache({.capacity = CampaignSpec{}.checkCache});
}

std::pair<std::uint64_t, std::uint64_t>
ModelCheckers::cacheStats() const
{
    const auto &a = posthoc.verdictCache()->stats();
    const auto &b = streaming.verdictCache()->stats();
    return {a.hits + b.hits, a.lookups + b.lookups};
}

mc::CheckResult
checkPosthoc(const CapturedWitness &w, ModelCheckers &mcs,
             mc::ExecWitness &scratch, Tracer *tracer)
{
    scratch.setEventSink(nullptr);
    scratch.reset();
    {
        Scope s(tracer, "mc.record");
        record(w, scratch);
    }
    {
        Scope s(tracer, "mc.finalize");
        scratch.finalize();
    }
    Scope s(tracer, "mc.check");
    return mcs.posthoc.check(scratch);
}

mc::CheckResult
checkStreaming(const CapturedWitness &w, ModelCheckers &mcs,
               mc::ExecWitness &scratch, Tracer *tracer)
{
    scratch.setEventSink(&mcs.sink);
    scratch.reset();
    mcs.sink.begin();
    {
        Scope s(tracer, "mc.stream_record");
        record(w, scratch);
    }
    scratch.setEventSink(nullptr);
    Scope s(tracer, "mc.stream_settle");
    return mcs.streaming.checkStreamed(scratch, mcs.sink);
}

LoopResult
runLoop(const CampaignSpec &spec, const LoopOptions &opts)
{
    Tracer *tr = opts.tracer;
    Scope cell(tr, "cell");
    LoopResult out;
    try {
        std::unique_ptr<host::TestSource> source;
        std::unique_ptr<mcversi::sim::System> system;
        std::unique_ptr<mc::Checker> checker;
        std::unique_ptr<host::Workload> workload;
        const host::VerificationHarness::Params hp = spec.harnessParams();
        {
            Scope s(tr, "campaign.setup");
            spec.validate();
            source = campaign::SourceRegistry::instance().make(
                spec.generator, spec);
            system = std::make_unique<mcversi::sim::System>(hp.system);
            checker = std::make_unique<mc::Checker>(mc::makeModel(hp.model));
            if (hp.checkCacheEntries > 0)
                checker->enableVerdictCache({.capacity = hp.checkCacheEntries});
            workload = std::make_unique<host::Workload>(
                *system, *checker, host::layoutFor(hp.gen), hp.workload);
        }
        mcversi::gp::AdaptiveCoverageFitness fitness(hp.fitness);
        mcversi::gp::ThreadSlots slots;
        // Probing one test-run in kProbeEvery keeps the traced run
        // within a few percent of the untraced one.
        bool probe_run = false;
        CapturedWitness last;
        mc::ExecWitness scratch;
        const bool capture = opts.probe != nullptr || opts.onWitness;
        const host::ConditionFn condition =
            !capture ? host::ConditionFn{}
                     : [&](const mc::ExecWitness &ew) {
                           if (!probe_run && !opts.onWitness)
                               return false;
                           Scope s(tr, "mc.capture");
                           if (probe_run)
                               captureWitness(ew, last);
                           if (opts.onWitness)
                               opts.onWitness(ew);
                           return false;
                       };

        while (out.testRuns < spec.maxTestRuns) {
            mcversi::gp::Test test;
            {
                Scope s(tr, "gp.next");
                test = source->next();
            }
            if (tr != nullptr) {
                // Emission is timed by a separate call on the same test
                // (runTest emits again inside the simulate span).
                Scope s(tr, "host.emit");
                (void)workload->emitPrograms(test, slots);
            }
            host::RunResult run;
            int run_span = -1;
            probe_run =
                opts.probe != nullptr && out.testRuns % kProbeEvery == 0;
            {
                Scope s(tr, "host.run_test");
                run_span = s.id();
                last.clear();
                run = workload->runTest(test, condition);
            }
            if (tr != nullptr)
                tr->addMeasuredChild(run_span, "mc.loop_check",
                                     run.checkSeconds);
            ++out.testRuns;
            out.simEvents += run.simEvents;
            out.messages += run.messagesSent;
            out.ticks += run.simTicks;
            out.events += run.eventsExecuted;
            out.watchdogAborts +=
                static_cast<std::uint64_t>(run.watchdogAborts);

            if (probe_run && !last.empty()) {
                out.probeEvents += last.size();
                checkPosthoc(last, *opts.probe, scratch, tr);
                checkStreaming(last, *opts.probe, scratch, tr);
            }

            host::RunFeedback feedback;
            {
                Scope s(tr, "gp.fitness");
                feedback.coverageFitness = fitness.evaluate(
                    run.preRunCounts, run.coveredTransitions,
                    run.newInterleavings);
            }
            feedback.nd = run.nd;
            {
                Scope s(tr, "gp.report");
                source->report(feedback);
            }
            if (run.bugDetected()) {
                out.bugFound = true;
                out.detail = run.describe();
                out.testRunsToBug = out.testRuns;
                out.eventsUntilDetection = run.eventsUntilDetection;
                break;
            }
        }
        out.protocolCoverage =
            system->coverage().totalCoverage(spec.protocolPrefix());
        if (const mc::VerdictCache *cache = checker->verdictCache()) {
            out.cacheHits = cache->stats().hits;
            out.cacheMisses = cache->stats().misses;
        }
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

} // namespace perfbench
