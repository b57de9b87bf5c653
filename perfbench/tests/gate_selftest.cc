/**
 * @file
 * Self-test of the benchmark's correctness gate: it must reject known-bad
 * output and accept good output.
 *
 *  - explore: a clean cell checked under sc (TSO hardware violates sc)
 *    and an error row are rejected; the same clean cell under tso passes.
 *  - hunt: an error row and a detection that is neither a violation nor
 *    a protocol error are rejected; a violation passes.
 *  - check-replay: real witness verdicts pass; an injected streaming /
 *    post-hoc mismatch (kind, message or cycle), a flagged clean witness
 *    under tso, and a pool that sc never flags are rejected.
 *
 * Exits 0 when every case behaves, 1 otherwise.
 */

#include <cstdio>
#include <string>

#include "campaign/runner.hh"
#include "gate.hh"
#include "loop.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
}

bool
rejects(const std::function<void(Gate &)> &feed)
{
    Gate gate;
    feed(gate);
    return !gate.ok();
}

CampaignSpec
cleanCell(const std::string &model)
{
    CampaignSpec spec;
    spec.seed = 7;
    spec.model = model;
    spec.maxTestRuns = 60;
    return spec;
}

void
exploreCases()
{
    const CampaignResult sc =
        mcversi::campaign::CampaignRunner::runOne(cleanCell("sc"));
    expect(sc.harness.bugFound, "clean cell under sc flags a violation");
    expect(rejects([&](Gate &g) { gateExploreCell(sc, g); }),
           "explore gate rejects a clean cell checked under sc");

    const CampaignResult tso =
        mcversi::campaign::CampaignRunner::runOne(cleanCell("tso"));
    expect(!rejects([&](Gate &g) { gateExploreCell(tso, g); }),
           "explore gate accepts the same clean cell under tso");

    CampaignResult error = tso;
    error.error = "injected error row";
    expect(rejects([&](Gate &g) { gateExploreCell(error, g); }),
           "explore gate rejects an error row");
}

void
huntCases()
{
    CampaignResult found;
    found.harness.bugFound = true;
    found.harness.detail = "MCM violation (GhbViolation): cycle";
    expect(!rejects([&](Gate &g) { gateHuntCell(found, g); }),
           "hunt gate accepts a violation");

    CampaignResult protocol = found;
    protocol.harness.detail = "protocol error: invalid transition";
    expect(!rejects([&](Gate &g) { gateHuntCell(protocol, g); }),
           "hunt gate accepts a protocol error");

    CampaignResult other = found;
    other.harness.detail = "litmus forbidden outcome observed";
    expect(rejects([&](Gate &g) { gateHuntCell(other, g); }),
           "hunt gate rejects a detection of another kind");

    CampaignResult error = found;
    error.error = "injected error row";
    expect(rejects([&](Gate &g) { gateHuntCell(error, g); }),
           "hunt gate rejects an error row");
}

void
replayCases()
{
    std::vector<CapturedWitness> pool;
    LoopOptions lo;
    lo.onWitness = [&pool](const mc::ExecWitness &ew) {
        pool.emplace_back();
        captureWitness(ew, pool.back());
    };
    const LoopResult cell = runLoop(cleanCell("tso"), lo);
    expect(cell.error.empty() && !cell.bugFound && !pool.empty(),
           "captured " + std::to_string(pool.size()) +
               " witnesses from a clean cell");

    ModelCheckers sc("sc"), tso("tso");
    mc::ExecWitness scratch;
    Gate real;
    ReplayGate replay;
    std::size_t flagged = pool.size();
    mc::CheckResult flagged_verdict;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        for (ModelCheckers *mcs : {&sc, &tso}) {
            const mc::CheckResult p = checkPosthoc(pool[i], *mcs, scratch, nullptr);
            const mc::CheckResult s =
                checkStreaming(pool[i], *mcs, scratch, nullptr);
            replay.add(i, mcs->model, p, s, real);
            if (mcs == &sc && !p.ok() && flagged == pool.size()) {
                flagged = i;
                flagged_verdict = p;
            }
        }
    }
    replay.finish(real);
    expect(real.ok(), "check-replay gate accepts real verdicts (" +
                          std::to_string(replay.scFlagged()) +
                          " flagged under sc)");
    expect(flagged < pool.size() && !flagged_verdict.cycle.empty(),
           "sc flags a witness with a cycle");

    auto mismatch = [&](const std::string &what,
                        const std::function<void(mc::CheckResult &)> &inject) {
        mc::CheckResult streaming = flagged_verdict;
        inject(streaming);
        expect(rejects([&](Gate &g) {
                   ReplayGate r;
                   r.add(flagged, "sc", flagged_verdict, streaming, g);
               }),
               "check-replay gate rejects an injected " + what + " mismatch");
    };
    mismatch("kind", [](mc::CheckResult &r) {
        r.kind = mc::CheckResult::Kind::UniprocViolation;
    });
    mismatch("message", [](mc::CheckResult &r) { r.message += " "; });
    mismatch("cycle", [](mc::CheckResult &r) {
        std::swap(r.cycle.front(), r.cycle.back());
        r.cycle.push_back(r.cycle.front());
    });

    expect(rejects([&](Gate &g) {
               ReplayGate r;
               r.add(flagged, "tso", flagged_verdict, flagged_verdict, g);
           }),
           "check-replay gate rejects a clean witness flagged under tso");
    expect(rejects([&](Gate &g) {
               ReplayGate r;
               r.add(0, "tso", {}, {}, g);
               r.finish(g);
           }),
           "check-replay gate rejects a pool sc never flags");
}

} // namespace

int
main()
{
    exploreCases();
    huntCases();
    replayCases();
    std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
                failures);
    return failures == 0 ? 0 : 1;
}
