/**
 * @file
 * The analyzer facade: profile in, instruction mixes out.
 *
 * Ties the analysis pipeline together the way the paper's tool does:
 * disassemble the binaries into a block map, estimate BBECs from the EBS
 * and LBR data sources, compute per-block features, let the HBBP
 * classifier pick a source per block, and expose instruction mixes for
 * the fused estimate and for the two raw methods (used as baselines
 * throughout the evaluation).
 */

#ifndef HBBP_ANALYSIS_ANALYZER_HH
#define HBBP_ANALYSIS_ANALYZER_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "analysis/bbec.hh"
#include "analysis/classifier.hh"
#include "analysis/mix.hh"
#include "collect/profile.hh"
#include "program/blockmap.hh"

namespace hbbp {

/** Analyzer configuration. */
struct AnalyzerOptions
{
    /** Block map construction (kernel text patching fix lives here). */
    BlockMapOptions map;
    /** Estimation and bias detection knobs. */
    BbecOptions bbec;
    /** Source selection rule; null means CutoffClassifier(18). */
    std::shared_ptr<const HbbpClassifier> classifier;

    /**
     * Options with Section III.C's live-kernel-text fix switched on
     * (or explicitly off, for stale-map comparisons).
     */
    static AnalyzerOptions kernelPatched(bool patch = true)
    {
        AnalyzerOptions opts;
        opts.map.patch_kernel_text = patch;
        return opts;
    }
};

/** Everything one analysis pass produces. */
struct AnalysisResult
{
    BlockMap map;             ///< References the analyzed Program.
    BbecEstimates estimates;  ///< Raw EBS/LBR estimates + bias flags.
    std::vector<BlockFeatures> features; ///< Per map block.
    std::vector<BbecSource> choice;      ///< HBBP's pick per block.
    std::vector<double> hbbp;            ///< Fused BBEC per block.

    /** Instruction mix from the fused HBBP counts. */
    InstructionMix hbbpMix() const { return {map, hbbp}; }

    /** Instruction mix from raw EBS (baseline). */
    InstructionMix ebsMix() const { return {map, estimates.ebs}; }

    /** Instruction mix from raw LBR (baseline). */
    InstructionMix lbrMix() const { return {map, estimates.lbr}; }
};

/** Where one analyze() call spent its time, in nanoseconds. */
struct AnalysisTiming
{
    uint64_t blockmap_ns = 0; ///< Disassembly and block discovery.
    uint64_t bbec_ns = 0;     ///< EBS/LBR estimation and bias detection.
};

/** Runs the analysis pipeline. */
class Analyzer
{
  public:
    explicit Analyzer(AnalyzerOptions opts = {});

    /**
     * Analyze @p profile against @p prog. The returned result references
     * @p prog, which must outlive it. *@p timing, when non-null,
     * receives the block map and BBEC stage times.
     */
    AnalysisResult analyze(const Program &prog, const ProfileData &profile,
                           AnalysisTiming *timing = nullptr) const;

    /** Compute the per-block feature vectors used for classification. */
    static std::vector<BlockFeatures>
    computeFeatures(const BlockMap &map, const BbecEstimates &estimates);

    /** The classifier in use. */
    const HbbpClassifier &classifier() const { return *classifier_; }

  private:
    AnalyzerOptions opts_;
    std::shared_ptr<const HbbpClassifier> classifier_;
};

/**
 * Project exact per-program-block counts (keyed by start address, as
 * produced by Instrumenter::bbecByAddr) onto a block map. Map blocks
 * whose start address has no exact counterpart get 0 — on a stale
 * kernel map this is where ground-truth comparisons surface the
 * mismatch.
 */
std::vector<double>
trueMapBbec(const BlockMap &map,
            const std::unordered_map<uint64_t, uint64_t> &bbec_by_addr);

} // namespace hbbp

#endif // HBBP_ANALYSIS_ANALYZER_HH
