/**
 * @file
 * CSR graph implementation.
 */

#include "graph/graph.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace heteromap {

namespace {

/**
 * The content hash runs four independent multiply-xorshift lanes over
 * consecutive 64-bit words, so the loop is bound by throughput rather
 * than by the latency of one multiply chain. For a fixed input word
 * each lane step is a bijection of the lane state, so two inputs
 * differing in one word always leave different lanes.
 */
constexpr std::size_t kLanes = 4;
constexpr uint64_t kLaneMul[kLanes] = {
    0x9e3779b97f4a7c15ull, 0xbf58476d1ce4e5b9ull,
    0x94d049bb133111ebull, 0xd6e8feb86659fd93ull};

using Lanes = uint64_t[kLanes];

inline void
step(Lanes &lanes, const uint64_t (&words)[kLanes])
{
    for (std::size_t l = 0; l < kLanes; ++l) {
        const uint64_t h = (lanes[l] ^ words[l]) * kLaneMul[l];
        lanes[l] = h ^ (h >> 29);
    }
}

/** Absorb @p bytes of @p data, zero-padding the final block. */
void
absorb(Lanes &lanes, const void *data, std::size_t bytes)
{
    constexpr std::size_t kBlock = sizeof(uint64_t) * kLanes;
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t words[kLanes];
    std::size_t i = 0;
    for (; i + kBlock <= bytes; i += kBlock) {
        std::memcpy(words, p + i, kBlock);
        step(lanes, words);
    }
    if (i < bytes) {
        std::memset(words, 0, kBlock);
        std::memcpy(words, p + i, bytes - i);
        step(lanes, words);
    }
}

/** splitmix64 finalizer, folding the lanes into the output words. */
uint64_t
finalize(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Hash every byte of the three CSR arrays. The array lengths are
 * absorbed first, so the zero padding of each array's last block can
 * never make two different contents hash alike.
 */
GraphFingerprint
fingerprintArrays(const std::vector<EdgeId> &offsets,
                  const std::vector<VertexId> &neighbors,
                  const std::vector<float> &weights)
{
    Lanes lanes = {0x0ff5e75ull, 0xad7ace2ull, 0x3e1647ull, 0xc0de5ull};
    const uint64_t lengths[kLanes] = {offsets.size(), neighbors.size(),
                                      weights.size(), 0};
    step(lanes, lengths);
    absorb(lanes, offsets.data(), offsets.size() * sizeof(EdgeId));
    absorb(lanes, neighbors.data(), neighbors.size() * sizeof(VertexId));
    absorb(lanes, weights.data(), weights.size() * sizeof(float));

    GraphFingerprint fp;
    fp.numVertices = offsets.empty() ? 0 : offsets.size() - 1;
    fp.numEdges = neighbors.size();
    fp.footprintBytes = offsets.size() * sizeof(EdgeId) +
                        neighbors.size() * sizeof(VertexId) +
                        weights.size() * sizeof(float);
    fp.contentLo = finalize(finalize(lanes[0]) ^ lanes[1]);
    fp.contentHi = finalize(finalize(lanes[2]) ^ lanes[3]);
    return fp;
}

const GraphFingerprint &
emptyFingerprint()
{
    static const GraphFingerprint fp = fingerprintArrays({}, {}, {});
    return fp;
}

} // namespace

Graph::Graph() : fingerprint_(emptyFingerprint())
{
}

Graph::Graph(std::vector<EdgeId> offsets, std::vector<VertexId> neighbors,
             std::vector<float> weights)
    : offsets_(std::move(offsets)), neighbors_(std::move(neighbors)),
      weights_(std::move(weights))
{
    HM_ASSERT(!offsets_.empty(), "CSR offsets must contain at least [0]");
    HM_ASSERT(offsets_.front() == 0, "CSR offsets must start at 0");
    HM_ASSERT(offsets_.back() == neighbors_.size(),
              "CSR offsets must end at the edge count");
    HM_ASSERT(weights_.empty() || weights_.size() == neighbors_.size(),
              "weight array arity mismatch");
    fingerprint_ = fingerprintArrays(offsets_, neighbors_, weights_);
}

Graph::Graph(Graph &&other) noexcept
    : offsets_(std::move(other.offsets_)),
      neighbors_(std::move(other.neighbors_)),
      weights_(std::move(other.weights_)),
      fingerprint_(other.fingerprint_)
{
    other.resetToEmpty();
}

Graph &
Graph::operator=(Graph &&other) noexcept
{
    if (this != &other) {
        offsets_ = std::move(other.offsets_);
        neighbors_ = std::move(other.neighbors_);
        weights_ = std::move(other.weights_);
        fingerprint_ = other.fingerprint_;
        other.resetToEmpty();
    }
    return *this;
}

void
Graph::resetToEmpty() noexcept
{
    offsets_.clear();
    neighbors_.clear();
    weights_.clear();
    fingerprint_ = emptyFingerprint();
}

uint64_t
Graph::footprintBytes() const
{
    return fingerprint_.footprintBytes;
}

EdgeId
Graph::maxDegree() const
{
    EdgeId best = 0;
    for (VertexId v = 0; v < numVertices(); ++v)
        best = std::max(best, degree(v));
    return best;
}

double
Graph::avgDegree() const
{
    if (numVertices() == 0)
        return 0.0;
    return static_cast<double>(numEdges()) /
           static_cast<double>(numVertices());
}

} // namespace heteromap
