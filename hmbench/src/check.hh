/**
 * @file
 * Answer checking and outcome accounting. Every OK response is
 * compared bit-exactly against the unbatched library reference,
 * HeteroMap::deploy(makeCase(...)) for the same (workload, graph,
 * measure options); a mismatch is a failed request.
 */

#ifndef HMBENCH_CHECK_HH
#define HMBENCH_CHECK_HH

#include <cstdint>
#include <string>

#include "core/heteromap.hh"

namespace hmbench {

/** What a client sees of a deployment (the wire carries this much). */
struct Answer {
    heteromap::AcceleratorKind accelerator =
        heteromap::AcceleratorKind::Multicore;
    uint32_t threads = 0;
    double seconds = 0.0; //!< modelled completion seconds
};

Answer answerOf(const heteromap::Deployment &deployment);

/** Accelerator, threads and the bits of the modelled seconds agree. */
bool sameAnswer(const Answer &a, const Answer &b);

/** The unbatched library reference for one request. */
Answer referenceAnswer(const heteromap::HeteroMap &framework,
                       const heteromap::Workload &workload,
                       const heteromap::Graph &graph,
                       const std::string &input_name,
                       const heteromap::MeasureOptions &measure);

/** Outcome counts of one measured phase. */
struct Tally {
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t shed = 0;
    uint64_t errors = 0;     //!< error responses and transport failures
    uint64_t mismatches = 0; //!< OK responses that disagree with the reference

    uint64_t failed() const { return shed + errors + mismatches; }
    double failedFrac() const;

    /** Count one OK response checked against @p expected. */
    void checkOk(const Answer &expected, const Answer &served);
};

} // namespace hmbench

#endif // HMBENCH_CHECK_HH
