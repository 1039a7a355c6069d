#include "check.hh"

#include <cstring>

#include "core/oracle.hh"

namespace hmbench {

Answer
answerOf(const heteromap::Deployment &deployment)
{
    Answer answer;
    answer.accelerator = deployment.config.accelerator;
    answer.threads =
        static_cast<uint32_t>(deployment.config.activeThreads());
    answer.seconds = deployment.report.seconds;
    return answer;
}

bool
sameAnswer(const Answer &a, const Answer &b)
{
    return a.accelerator == b.accelerator && a.threads == b.threads &&
           std::memcmp(&a.seconds, &b.seconds, sizeof a.seconds) == 0;
}

Answer
referenceAnswer(const heteromap::HeteroMap &framework,
                const heteromap::Workload &workload,
                const heteromap::Graph &graph,
                const std::string &input_name,
                const heteromap::MeasureOptions &measure)
{
    const heteromap::GraphStats stats =
        heteromap::measureGraph(graph, measure);
    return answerOf(framework.deploy(
        heteromap::makeCase(workload, graph, input_name, stats)));
}

double
Tally::failedFrac() const
{
    return attempted ? static_cast<double>(failed()) /
                           static_cast<double>(attempted)
                     : 0.0;
}

void
Tally::checkOk(const Answer &expected, const Answer &served)
{
    ++ok;
    if (!sameAnswer(expected, served))
        ++mismatches;
}

} // namespace hmbench
