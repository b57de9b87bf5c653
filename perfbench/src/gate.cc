#include "gate.hh"

namespace perfbench {

namespace mc = mcversi::mc;

namespace {

std::string
cellName(const mcversi::campaign::CampaignResult &cell)
{
    return "cell '" + cell.spec.toString() + "'";
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

std::string
render(const mc::CheckResult &r)
{
    std::string s = mc::CheckResult::kindName(r.kind);
    s += " cycle=[";
    for (const mc::EventId e : r.cycle)
        s += std::to_string(e) + ",";
    s += "] message=" + r.message;
    return s;
}

} // namespace

void
gateExploreCell(const mcversi::campaign::CampaignResult &cell, Gate &gate)
{
    if (!cell.ok()) {
        gate.fail(cellName(cell) + ": error row: " + cell.error);
    } else if (cell.harness.bugFound) {
        gate.fail(cellName(cell) + ": clean cell reported " +
                  cell.harness.detail);
    }
}

void
gateHuntCell(const mcversi::campaign::CampaignResult &cell, Gate &gate)
{
    if (!cell.ok()) {
        gate.fail(cellName(cell) + ": error row: " + cell.error);
        return;
    }
    const std::string &detail = cell.harness.detail;
    if (cell.harness.bugFound && !startsWith(detail, "MCM violation (") &&
        !startsWith(detail, "protocol error: ")) {
        gate.fail(cellName(cell) +
                  ": detection is neither a violation nor a protocol "
                  "error: " + detail);
    }
}

void
ReplayGate::add(std::size_t witness, const std::string &model,
                const mc::CheckResult &posthoc,
                const mc::CheckResult &streaming, Gate &gate)
{
    ++pairs_;
    const std::string where =
        "witness " + std::to_string(witness) + " under " + model;
    if (posthoc.kind != streaming.kind ||
        posthoc.message != streaming.message ||
        posthoc.cycle != streaming.cycle) {
        gate.fail(where + ": streaming verdict {" + render(streaming) +
                  "} differs from post-hoc {" + render(posthoc) + "}");
    }
    if (model == "sc") {
        scFlagged_ += posthoc.ok() ? 0 : 1;
    } else if (!posthoc.ok()) {
        gate.fail(where + ": clean-hardware witness flagged: " +
                  render(posthoc));
    }
}

void
ReplayGate::finish(Gate &gate) const
{
    if (scFlagged_ == 0) {
        gate.fail("sc flagged none of " + std::to_string(pairs_) +
                  " pairs: the verdict comparison is vacuous");
    }
}

} // namespace perfbench
