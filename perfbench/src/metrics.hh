/**
 * @file
 * Per-layer metrics of a traced run, shared by every workload.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <vector>

#include "bench.hh"
#include "loop.hh"

namespace perfbench {

/** Counters a workload hands to addLayerMetrics(). */
struct LayerTotals
{
    /** Deterministic counters of the traced pass's simulated cells. */
    std::vector<LoopResult> cells;
    /** memconsistency.check_s; negative: the in-loop check time. */
    double checkSeconds = -1.0;
    /** memconsistency.events; 0: the events the cells recorded. */
    std::uint64_t checkEvents = 0;
    /** Witness events each check path replayed (probe or replay). */
    std::uint64_t replayEvents = 0;
    std::uint64_t violations = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheLookups = 0;
    /** Untraced wall of the work the traced pass repeats. */
    double untracedSeconds = 0.0;
};

/**
 * Append every per-layer metric to @p report from the traced pass's
 * spans and @p totals. Fails the gate when the layers' self times
 * cover less than 95% of the traced wall.
 */
void addLayerMetrics(Report &report, const LayerTotals &totals);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
