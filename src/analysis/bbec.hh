/**
 * @file
 * Basic block execution count estimation from PMU samples.
 *
 * Implements the two base methods of Section III and their paper-exact
 * scaling:
 *
 *  - EBS: every eventing-IP sample is applied to all instructions of the
 *    enclosing basic block; the block estimate is
 *    samples * period / block_length (the paper's enhancement of
 *    classic EBS);
 *  - LBR: every stack of N entries yields N-1 <Target[i-1], Source[i]>
 *    streams, each crediting all blocks on the straight-line path with
 *    weight 1/(N-1); the block estimate is weighted_streams * period.
 *
 * The stream check validates that no architecturally always-taken
 * control transfer lies strictly inside a stream — invalid streams are
 * discarded. This is what makes the kernel self-modifying-code anomaly
 * (Section III.C) visible: the static kernel image contains tracepoint
 * JMPs that live execution ignores, so streams checked against the
 * static map are rejected. The check is O(1) per stream on BlockMap's
 * dense indices (streamBlocks), and credit goes into vectors indexed
 * by block, in stream order, so the sums are reproducible bit for bit.
 *
 * Bias detection follows Section III.C: a branch whose frequency at
 * entry[0] is disproportionate relative to its overall LBR presence
 * marks the blocks whose evidence depends on it as bias-suspect.
 */

#ifndef HBBP_ANALYSIS_BBEC_HH
#define HBBP_ANALYSIS_BBEC_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "collect/profile.hh"
#include "program/blockmap.hh"

namespace hbbp {

/** Tuning knobs for estimation and bias detection. */
struct BbecOptions
{
    /** Minimum entry[0] frequency before a branch can be biased. */
    double bias_min_freq = 0.06;
    /** entry[0] frequency must exceed ratio * overall slot frequency. */
    double bias_ratio = 2.0;
    /** Fraction of a block's LBR credit from biased samples to flag it. */
    double biased_credit_frac = 0.30;
    /** Safety cap on blocks credited per stream. */
    uint32_t max_walk_blocks = 4096;
    /**
     * Scale LBR estimates by 1/(1 - discarded stream fraction): the
     * analyzer knows how many streams it rejected, so the systematic
     * undercount can be corrected globally, leaving only the local
     * distortion near the anomalous branches.
     */
    bool renormalize_discards = true;
};

/** A detected biased branch (diagnostics). */
struct BiasedBranch
{
    uint64_t source = 0;      ///< Branch source address.
    double entry0_freq = 0.0; ///< Fraction of samples with it at [0].
    double overall_freq = 0.0;///< Fraction of all stack slots.
};

/** Per-map-block estimates from both methods plus bias flags. */
struct BbecEstimates
{
    /** EBS-estimated execution counts, indexed by MapBlock index. */
    std::vector<double> ebs;
    /** LBR-estimated execution counts. */
    std::vector<double> lbr;
    /** Raw EBS sample count per block (diagnostics). */
    std::vector<uint32_t> ebs_samples;
    /** Accumulated LBR stream weight per block (diagnostics). */
    std::vector<double> lbr_weight;
    /** Bias-suspect flag per block. */
    std::vector<bool> bias;

    /** Detected biased branches, sorted by source address. */
    std::vector<BiasedBranch> biased_branches;

    uint64_t lbr_streams_total = 0;
    uint64_t lbr_streams_discarded = 0;
    uint64_t ebs_samples_unmapped = 0;

    /** Fraction of streams the stream check rejected. */
    double
    discardFraction() const
    {
        return lbr_streams_total
            ? static_cast<double>(lbr_streams_discarded) /
              static_cast<double>(lbr_streams_total) : 0.0;
    }
};

/** The map blocks one LBR stream credits: [first, last] in order. */
struct StreamBlocks
{
    uint32_t first = 0;
    uint32_t last = 0;
};

/**
 * Check the straight-line stream from branch target @p target to
 * branch source @p source against @p map. The stream is valid iff
 * @p target starts block first, @p source is the control transfer
 * ending block last, first <= last, last - first < @p max_blocks, and
 * execution falls through from first to last (no always-taken
 * transfer or gap in between). A mid-block target or source means the
 * map is stale. Returns the credited blocks, or nullopt when invalid.
 * O(1); inline because the estimator calls it once per stream.
 */
inline std::optional<StreamBlocks>
streamBlocks(const BlockMap &map, uint64_t target, uint64_t source,
             uint32_t max_blocks)
{
    uint32_t first = map.blockStartingAt(target);
    uint32_t last = map.blockBranchingAt(source);
    if (first == BlockMap::npos || last == BlockMap::npos)
        return std::nullopt;
    // Blocks are sorted and disjoint, so first <= last iff
    // source >= target.
    if (first > last || last - first >= max_blocks)
        return std::nullopt;
    if (!map.fallsThrough(first, last))
        return std::nullopt;
    return StreamBlocks{first, last};
}

/** Computes BbecEstimates from a profile on a block map. */
class BbecEstimator
{
  public:
    explicit BbecEstimator(BbecOptions opts = {}) : opts_(opts) {}

    /** Run both estimators and bias detection. */
    BbecEstimates estimate(const BlockMap &map,
                           const ProfileData &profile) const;

  private:
    BbecOptions opts_;
};

} // namespace hbbp

#endif // HBBP_ANALYSIS_BBEC_HH
