/**
 * @file
 * Profile counter implementation.
 */

#include "exec/profile.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"

namespace heteromap {

const char *
phaseKindName(PhaseKind kind)
{
    switch (kind) {
      case PhaseKind::VertexDivision: return "vertex-division";
      case PhaseKind::Pareto:         return "pareto";
      case PhaseKind::ParetoDynamic:  return "pareto-dynamic";
      case PhaseKind::PushPop:        return "push-pop";
      case PhaseKind::Reduction:      return "reduction";
    }
    return "?";
}

double
PhaseProfile::totalAccesses() const
{
    return directAccesses + indirectAccesses;
}

double
PhaseProfile::totalBytes() const
{
    return sharedReadBytes + sharedWriteBytes + localBytes;
}

double
PhaseProfile::totalWorkUnits() const
{
    double total = 0.0;
    for (double c : bucketCost)
        total += c;
    return total;
}

void
PhaseProfile::merge(const PhaseProfile &other)
{
    HM_ASSERT(name == other.name, "merging mismatched phases: ", name,
              " vs ", other.name);
    HM_ASSERT(kind == other.kind, "merging mismatched phase kinds");
    invocations += other.invocations;
    workItems += other.workItems;
    intOps += other.intOps;
    fpOps += other.fpOps;
    directAccesses += other.directAccesses;
    indirectAccesses += other.indirectAccesses;
    sharedReadBytes += other.sharedReadBytes;
    sharedWriteBytes += other.sharedWriteBytes;
    localBytes += other.localBytes;
    atomics += other.atomics;
    maxItemCost = std::max(maxItemCost, other.maxItemCost);
    if (bucketCost.size() < other.bucketCost.size())
        bucketCost.resize(other.bucketCost.size(), 0.0);
    for (std::size_t i = 0; i < other.bucketCost.size(); ++i)
        bucketCost[i] += other.bucketCost[i];
}

const PhaseProfile *
WorkloadProfile::findPhase(const std::string &name) const
{
    for (const auto &phase : phases)
        if (phase.name == name)
            return &phase;
    return nullptr;
}

double
WorkloadProfile::totalWorkUnits() const
{
    double total = 0.0;
    for (const auto &phase : phases)
        total += phase.totalWorkUnits();
    return total;
}

double
WorkloadProfile::totalOps() const
{
    double total = 0.0;
    for (const auto &phase : phases)
        total += phase.totalOps();
    return total;
}

double
WorkloadProfile::totalBytes() const
{
    double total = 0.0;
    for (const auto &phase : phases)
        total += phase.totalBytes();
    return total;
}

double
WorkloadProfile::totalAtomics() const
{
    double total = 0.0;
    for (const auto &phase : phases)
        total += phase.atomics;
    return total;
}

std::string
WorkloadProfile::toString() const
{
    std::ostringstream oss;
    oss << "iterations=" << iterations << " barriers=" << barriers << "\n";
    for (const auto &phase : phases) {
        oss << "  " << phase.name << " (" << phaseKindName(phase.kind)
            << "): items=" << phase.workItems
            << " ops=" << phase.totalOps()
            << " bytes=" << phase.totalBytes()
            << " atomics=" << phase.atomics << "\n";
    }
    return oss.str();
}

} // namespace heteromap
