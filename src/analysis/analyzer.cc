#include "analysis/analyzer.hh"

#include <algorithm>
#include <chrono>

#include "support/logging.hh"

namespace hbbp {

Analyzer::Analyzer(AnalyzerOptions opts) : opts_(std::move(opts))
{
    classifier_ = opts_.classifier
        ? opts_.classifier
        : std::make_shared<const CutoffClassifier>(18.0);
}

std::vector<BlockFeatures>
Analyzer::computeFeatures(const BlockMap &map,
                          const BbecEstimates &estimates)
{
    const size_t n = map.blocks().size();
    std::vector<BlockFeatures> features(n);
    for (size_t i = 0; i < n; i++) {
        const MapBlock &blk = map.block(static_cast<uint32_t>(i));
        BlockFeatures &f = features[i];
        f.length = static_cast<double>(blk.size());
        f.bytes = static_cast<double>(blk.bytes);
        f.exec_estimate = std::max(estimates.ebs[i], estimates.lbr[i]);
        f.bias = estimates.bias[i] ? 1.0 : 0.0;
        f.long_latency = blk.hasLongLatency() ? 1.0 : 0.0;
        size_t controls = 0;
        for (const Instruction &instr : blk.instrs)
            if (instr.info().isControl())
                controls++;
        f.branch_density = blk.size()
            ? static_cast<double>(controls) /
              static_cast<double>(blk.size()) : 0.0;
    }
    return features;
}

namespace {

/** Steady-clock nanoseconds for the stage timing split. */
uint64_t
stageNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

AnalysisResult
Analyzer::analyze(const Program &prog, const ProfileData &profile,
                  AnalysisTiming *timing) const
{
    uint64_t t0 = stageNowNs();
    BlockMap map(prog, opts_.map);
    uint64_t t1 = stageNowNs();
    BbecEstimator estimator(opts_.bbec);
    BbecEstimates estimates = estimator.estimate(map, profile);
    if (timing) {
        timing->blockmap_ns = t1 - t0;
        timing->bbec_ns = stageNowNs() - t1;
    }
    std::vector<BlockFeatures> features = computeFeatures(map, estimates);

    const size_t n = map.blocks().size();
    std::vector<BbecSource> choice(n, BbecSource::Lbr);
    std::vector<double> fused(n, 0.0);
    for (size_t i = 0; i < n; i++) {
        choice[i] = classifier_->choose(features[i]);
        fused[i] = choice[i] == BbecSource::Ebs ? estimates.ebs[i]
                                                : estimates.lbr[i];
    }

    return AnalysisResult{std::move(map), std::move(estimates),
                          std::move(features), std::move(choice),
                          std::move(fused)};
}

std::vector<double>
trueMapBbec(const BlockMap &map,
            const std::unordered_map<uint64_t, uint64_t> &bbec_by_addr)
{
    std::vector<double> out(map.blocks().size(), 0.0);
    for (uint32_t i = 0; i < map.blocks().size(); i++) {
        auto it = bbec_by_addr.find(map.block(i).start);
        if (it != bbec_by_addr.end())
            out[i] = static_cast<double>(it->second);
    }
    return out;
}

} // namespace hbbp
