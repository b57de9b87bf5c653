#include "metrics.hh"

#include <cstdio>
#include <map>
#include <string>

namespace perfbench {

void
addLayerMetrics(Report &report, const LayerTotals &totals)
{
    std::map<std::string, Tracer::Times> times;
    for (const Tracer &t : report.tracers)
        t.addTimes(times);
    auto self = [&times](const char *name) { return times[name].self; };
    auto total = [&times](const char *name) { return times[name].total; };

    // Root spans: one per simulated cell and one per replay pass. Their
    // own self time is the only time no layer span covers.
    const double traced = total("cell") + total("pass");
    const double unattributed = self("cell") + self("pass");
    const double coverage =
        traced > 0.0 ? 100.0 * (1.0 - unattributed / traced) : 0.0;
    if (coverage < 95.0) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "per-layer self times cover %.2f%% of traced wall "
                      "(< 95%%)",
                      coverage);
        report.gate.fail(buf);
    }

    std::uint64_t runs_to_bug = 0, sim_events = 0, messages = 0, ticks = 0,
                  events = 0, aborts = 0;
    std::vector<double> coverage_pct, until_detection;
    for (const LoopResult &c : totals.cells) {
        runs_to_bug += c.testRunsToBug;
        sim_events += c.simEvents;
        messages += c.messages;
        ticks += c.ticks;
        events += c.events;
        aborts += c.watchdogAborts;
        coverage_pct.push_back(100.0 * c.protocolCoverage);
        if (c.bugFound)
            until_detection.push_back(
                static_cast<double>(c.eventsUntilDetection));
    }
    const double sim_s = self("host.run_test");
    const double posthoc_s =
        total("mc.record") + total("mc.finalize") + total("mc.check");
    const double stream_s =
        total("mc.stream_record") + total("mc.stream_settle");
    const auto replay_events = static_cast<double>(totals.replayEvents);
    auto per = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    report.add("gp.next_s", self("gp.next"), "s");
    report.add("gp.fitness_s", self("gp.fitness"), "s");
    report.add("gp.report_s", self("gp.report"), "s");
    report.add("gp.runs_to_bug", static_cast<double>(runs_to_bug), "count");
    report.add("host.run_test_s", total("host.run_test"), "s");
    report.add("host.emit_s", self("host.emit"), "s");
    report.add("sim.s", sim_s, "s");
    report.add("sim.share_pct", per(100.0 * sim_s, traced), "%");
    report.add("sim.events", static_cast<double>(sim_events), "count");
    report.add("sim.events_per_s", per(static_cast<double>(sim_events), sim_s),
               "1/s");
    report.add("sim.events_per_op",
               per(static_cast<double>(sim_events), static_cast<double>(events)),
               "count");
    report.add("sim.messages", static_cast<double>(messages), "count");
    report.add("sim.ticks", static_cast<double>(ticks), "count");
    report.add("sim.watchdog_aborts", static_cast<double>(aborts), "count");
    report.add("sim.coverage_pct", median(coverage_pct), "%");
    report.add("campaign.setup_s", self("campaign.setup"), "s");
    report.add("memconsistency.check_s",
               totals.checkSeconds >= 0.0 ? totals.checkSeconds
                                          : total("mc.loop_check"),
               "s");
    report.add("memconsistency.capture_s", self("mc.capture"), "s");
    report.add("memconsistency.record_s", total("mc.record"), "s");
    report.add("memconsistency.finalize_s", total("mc.finalize"), "s");
    report.add("memconsistency.check_us_per_event",
               per(1e6 * posthoc_s, replay_events), "us");
    report.add("memconsistency.stream_us_per_event",
               per(1e6 * stream_s, replay_events), "us");
    report.add("memconsistency.events",
               static_cast<double>(totals.checkEvents != 0 ? totals.checkEvents
                                                           : events),
               "count");
    report.add("memconsistency.violations",
               static_cast<double>(totals.violations), "count");
    report.add("memconsistency.cache_lookups",
               static_cast<double>(totals.cacheLookups), "count");
    report.add("memconsistency.cache_hit_rate",
               per(static_cast<double>(totals.cacheHits),
                   static_cast<double>(totals.cacheLookups)),
               "ratio");
    report.add("memconsistency.events_until_detection",
               until_detection.empty() ? 0.0 : median(until_detection),
               "count");
    report.add("trace.coverage_pct", coverage, "%");
    report.add("trace.overhead_pct",
               per(100.0 * traced, totals.untracedSeconds) - 100.0, "%");
}

} // namespace perfbench
