/**
 * @file
 * The benchmark's correctness gate.
 *
 * Every rule holds for any seed, so the gate needs no per-seed expected
 * values:
 *  - explore: a clean cell has no error row, no violation and no
 *    protocol error (clean TSO hardware never violates tso);
 *  - hunt: every detection is a consistency violation or a protocol
 *    error, never an error row;
 *  - check-replay: for every (witness, model) pair the streaming
 *    verdict equals the post-hoc verdict byte for byte (kind, message,
 *    cycle); clean-hardware witnesses are Ok under tso, pso, rmo and
 *    rc; and sc flags at least one witness, so the comparison is not
 *    vacuous.
 */

#ifndef PERFBENCH_GATE_HH
#define PERFBENCH_GATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/result.hh"
#include "memconsistency/checker.hh"

namespace perfbench {

/** Collected gate failures; the output is correct iff there are none. */
struct Gate
{
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }
    void fail(std::string why) { failures.push_back(std::move(why)); }
};

/** explore: @p cell must be a clean, error-free campaign. */
void gateExploreCell(const mcversi::campaign::CampaignResult &cell,
                     Gate &gate);

/** hunt: @p cell may detect its bug only as a violation/protocol error. */
void gateHuntCell(const mcversi::campaign::CampaignResult &cell, Gate &gate);

/** check-replay: compares verdict pairs as they are produced. */
class ReplayGate
{
  public:
    /**
     * One (witness, model) pair: the post-hoc verdict (record ->
     * finalize -> Checker::check) and the streaming one (record through
     * a StreamingChecker sink -> Checker::checkStreamed).
     */
    void add(std::size_t witness, const std::string &model,
             const mcversi::mc::CheckResult &posthoc,
             const mcversi::mc::CheckResult &streaming, Gate &gate);

    /** Final rule: sc must have flagged at least one witness. */
    void finish(Gate &gate) const;

    std::uint64_t scFlagged() const { return scFlagged_; }

  private:
    std::uint64_t pairs_ = 0;
    std::uint64_t scFlagged_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_GATE_HH
