#include "analysis/bbec.hh"

#include <algorithm>

#include "support/addr_table.hh"
#include "support/vectorops.hh"

namespace hbbp {

namespace {

/** How often one branch source shows up in the LBR stacks. */
struct SourceCounts
{
    uint64_t entry0 = 0; ///< Stacks with the source at entry[0].
    uint64_t slots = 0;  ///< Stack slots holding the source.
};

/** True when any entry of @p sample has a source in @p sources. */
bool
mentionsAny(const LbrStackSample &sample,
            const std::vector<uint64_t> &sources)
{
    for (const LbrEntry &e : sample.entries)
        if (std::find(sources.begin(), sources.end(), e.source) !=
            sources.end())
            return true;
    return false;
}

} // namespace

BbecEstimates
BbecEstimator::estimate(const BlockMap &map,
                        const ProfileData &profile) const
{
    const size_t n = map.blocks().size();
    BbecEstimates est;
    est.ebs.assign(n, 0.0);
    est.lbr.assign(n, 0.0);
    est.ebs_samples.assign(n, 0);
    est.lbr_weight.assign(n, 0.0);
    est.bias.assign(n, false);

    // ---- EBS: eventing IPs credit their enclosing block.
    for (const EbsSample &sample : profile.ebs) {
        uint32_t bi = map.blockAt(sample.ip);
        if (bi == BlockMap::npos) {
            est.ebs_samples_unmapped++;
            continue;
        }
        est.ebs_samples[bi]++;
    }
    const double ebs_period =
        static_cast<double>(profile.sim_periods.ebs);
    for (size_t i = 0; i < n; i++) {
        size_t len = map.block(static_cast<uint32_t>(i)).size();
        if (len == 0)
            continue;
        est.ebs[i] = static_cast<double>(est.ebs_samples[i]) * ebs_period /
                     static_cast<double>(len);
    }

    // ---- Bias detection pass A: entry[0] frequency vs overall slot
    // frequency per branch source address.
    AddrTable<SourceCounts> counts;
    uint64_t total_samples = 0;
    uint64_t total_slots = 0;
    for (const LbrStackSample &sample : profile.lbr) {
        if (sample.entries.empty())
            continue;
        total_samples++;
        counts[sample.entries.front().source].entry0++;
        for (const LbrEntry &e : sample.entries) {
            counts[e.source].slots++;
            total_slots++;
        }
    }
    if (total_samples > 0 && total_slots > 0) {
        counts.forEach([&](uint64_t src, const SourceCounts &c) {
            if (c.entry0 == 0)
                return;
            double freq0 = static_cast<double>(c.entry0) /
                           static_cast<double>(total_samples);
            double overall = static_cast<double>(c.slots) /
                             static_cast<double>(total_slots);
            if (freq0 >= opts_.bias_min_freq &&
                freq0 > opts_.bias_ratio * overall)
                est.biased_branches.push_back({src, freq0, overall});
        });
        std::sort(est.biased_branches.begin(), est.biased_branches.end(),
                  [](const BiasedBranch &a, const BiasedBranch &b) {
                      return a.source < b.source;
                  });
    }
    // Few by construction: entry[0] frequencies sum to 1, so at most
    // 1 / bias_min_freq sources clear the floor.
    std::vector<uint64_t> biased_sources;
    for (const BiasedBranch &bb : est.biased_branches)
        biased_sources.push_back(bb.source);

    // ---- LBR: check the N-1 streams of every stack and credit the
    // blocks each valid one spans.
    std::vector<double> biased_credit(n, 0.0);
    for (const LbrStackSample &sample : profile.lbr) {
        const size_t depth = sample.entries.size();
        if (depth < 2)
            continue;
        const double weight = 1.0 / static_cast<double>(depth - 1);
        // A sample is bias-suspect when a biased branch appears anywhere
        // in the stack: the stale-entry[0] anomaly distorts evidence for
        // every block that co-occurs with the anomalous branch.
        const bool sample_biased =
            !biased_sources.empty() && mentionsAny(sample, biased_sources);
        for (size_t i = 1; i < depth; i++) {
            est.lbr_streams_total++;
            std::optional<StreamBlocks> span =
                streamBlocks(map, sample.entries[i - 1].target,
                             sample.entries[i].source,
                             opts_.max_walk_blocks);
            if (!span) {
                est.lbr_streams_discarded++;
                continue;
            }
            for (uint32_t bi = span->first; bi <= span->last; bi++)
                est.lbr_weight[bi] += weight;
            if (sample_biased)
                for (uint32_t bi = span->first; bi <= span->last; bi++)
                    biased_credit[bi] += weight;
        }
    }
    double lbr_scale = static_cast<double>(profile.sim_periods.lbr);
    if (opts_.renormalize_discards && est.lbr_streams_total > 0 &&
        est.lbr_streams_discarded < est.lbr_streams_total) {
        lbr_scale /= 1.0 - est.discardFraction();
    }
    vecops::scaledCopy(est.lbr.data(), est.lbr_weight.data(), lbr_scale,
                       n);

    // ---- Bias flags: blocks containing a biased branch, and blocks
    // whose LBR evidence substantially comes from biased samples.
    for (uint64_t src : biased_sources) {
        uint32_t bi = map.blockAt(src);
        if (bi != BlockMap::npos)
            est.bias[bi] = true;
    }
    for (size_t i = 0; i < n; i++) {
        if (est.lbr_weight[i] > 0.0 &&
            biased_credit[i] / est.lbr_weight[i] >
                opts_.biased_credit_frac)
            est.bias[i] = true;
    }

    return est;
}

} // namespace hbbp
