/**
 * @file
 * Tests for BBEC estimation: EBS scaling, LBR stream crediting, stream
 * validation (checked against the block-by-block walk it replaced),
 * bias detection and renormalization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <unordered_set>

#include "analysis/analyzer.hh"
#include "analysis/bbec.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

/** Collect + ground truth for a workload with the given PMU settings. */
struct Capture
{
    ProfileData profile;
    std::unordered_map<uint64_t, uint64_t> truth;
};

Capture
capture(const Workload &w, bool quirk_enabled = true)
{
    Capture out;
    CollectorConfig cc;
    cc.runtime_class = w.runtime_class;
    cc.max_instructions = w.max_instructions;
    cc.seed = w.exec_seed;
    cc.pmu.quirk.enabled = quirk_enabled;
    out.profile = Collector::collect(*w.program, MachineConfig{}, cc);

    Instrumenter instr(*w.program, true);
    ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
    engine.addObserver(&instr);
    engine.run(w.max_instructions);
    out.truth = instr.bbecByAddr();
    return out;
}

Workload
loopWorkload(uint64_t trips, size_t body_len)
{
    auto lp = testutil::makeLoopProgram(trips, body_len);
    Workload w;
    w.name = "loop";
    w.program = lp.program;
    w.runtime_class = RuntimeClass::Seconds;
    w.max_instructions = UINT64_MAX;
    return w;
}

TEST(BbecEstimator, EbsUnbiasedOnHotLoop)
{
    Workload w = loopWorkload(400'000, 12);
    Capture cap = capture(w, /*quirk=*/false);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);

    // The body block dominates; its EBS estimate is within a few
    // percent of the true count.
    uint32_t body = 1;
    double truth = static_cast<double>(
        cap.truth.at(map.block(body).start));
    ASSERT_GT(truth, 0);
    EXPECT_NEAR(est.ebs[body] / truth, 1.0, 0.06);
    EXPECT_EQ(est.ebs_samples_unmapped, 0u);
}

TEST(BbecEstimator, LbrNearExactOnCleanLoop)
{
    Workload w = loopWorkload(400'000, 12);
    Capture cap = capture(w, /*quirk=*/false);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);

    uint32_t body = 1;
    double truth = static_cast<double>(
        cap.truth.at(map.block(body).start));
    EXPECT_NEAR(est.lbr[body] / truth, 1.0, 0.04);
    EXPECT_EQ(est.lbr_streams_discarded, 0u);
    EXPECT_TRUE(est.biased_branches.empty());
}

TEST(BbecEstimator, EstimatesScaleWithPeriods)
{
    // Same workload, two different period scales: estimates must agree
    // (scaling compensates the sampling rate).
    Workload w = loopWorkload(400'000, 12);
    CollectorConfig base;
    base.runtime_class = w.runtime_class;
    base.pmu.quirk.enabled = false;

    // A smaller scale keeps the simulated periods above the floors, so
    // the two collections really use different periods.
    CollectorConfig denser = base;
    denser.period_scale = 250;

    ProfileData p1 = Collector::collect(*w.program, MachineConfig{}, base);
    ProfileData p2 =
        Collector::collect(*w.program, MachineConfig{}, denser);
    ASSERT_NE(p1.sim_periods.ebs, p2.sim_periods.ebs);

    BlockMap map(*w.program);
    BbecEstimates e1 = BbecEstimator().estimate(map, p1);
    BbecEstimates e2 = BbecEstimator().estimate(map, p2);
    uint32_t body = 1;
    EXPECT_NEAR(e1.ebs[body] / e2.ebs[body], 1.0, 0.1);
    EXPECT_NEAR(e1.lbr[body] / e2.lbr[body], 1.0, 0.1);
}

TEST(BbecEstimator, StreamWalkCreditsWholePath)
{
    // Build: A (cond, mostly not taken) -> B -> C(branch back to A).
    // LBR streams from C's backedge target A and span A,B,C: all three
    // blocks get comparable LBR estimates.
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId fn = pb.addFunction(mod, "f");
    BlockId a = pb.addBlock(fn);
    pb.append(a, makeInstr(Mnemonic::MOV));
    pb.append(a, makeInstr(Mnemonic::CMP));
    BlockId b = pb.addBlock(fn);
    BlockId c = pb.addBlock(fn);
    pb.endCond(a, Mnemonic::JZ, c, pb.addBehavior(Behavior::prob(0.05)),
               b);
    pb.append(b, makeInstr(Mnemonic::ADD));
    pb.append(b, makeInstr(Mnemonic::SUB));
    pb.endFallThrough(b);
    pb.append(c, makeInstr(Mnemonic::TEST));
    pb.endCond(c, Mnemonic::JNZ, a,
               pb.addBehavior(Behavior::loop(500'000)));
    BlockId done = pb.addBlock(fn);
    pb.append(done, makeInstr(Mnemonic::NOP));
    pb.endExit(done);
    pb.setEntry(fn);

    Workload w;
    w.name = "abc";
    w.program = std::make_shared<Program>(pb.build());
    w.runtime_class = RuntimeClass::Seconds;
    w.max_instructions = UINT64_MAX;

    Capture cap = capture(w, /*quirk=*/false);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);

    uint32_t ma = map.blockAt(w.program->block(a).start);
    uint32_t mb = map.blockAt(w.program->block(b).start);
    uint32_t mc = map.blockAt(w.program->block(c).start);
    double ta = static_cast<double>(cap.truth.at(map.block(ma).start));
    double tb = static_cast<double>(cap.truth.at(map.block(mb).start));
    double tc = static_cast<double>(cap.truth.at(map.block(mc).start));
    EXPECT_NEAR(est.lbr[ma] / ta, 1.0, 0.05);
    EXPECT_NEAR(est.lbr[mb] / tb, 1.0, 0.05);
    EXPECT_NEAR(est.lbr[mc] / tc, 1.0, 0.05);
}

TEST(BbecEstimator, InvalidStreamsDiscardedOnStaleKernelMap)
{
    // Kernel tracepoints: the static map contains JMPs that execution
    // ignores, so streams crossing them are rejected unless the map is
    // patched with the live text.
    auto kp = testutil::makeKernelProgram(300'000,
                                          /*with_tracepoint=*/true);
    Workload w;
    w.name = "kern";
    w.program = kp.program;
    w.runtime_class = RuntimeClass::Seconds;
    w.max_instructions = 3'000'000;

    Capture cap = capture(w, /*quirk=*/false);

    BlockMap stale(*w.program, {.patch_kernel_text = false});
    BbecEstimates est_stale = BbecEstimator().estimate(stale, cap.profile);
    BlockMap fixed(*w.program, {.patch_kernel_text = true});
    BbecEstimates est_fixed = BbecEstimator().estimate(fixed, cap.profile);

    EXPECT_GT(est_stale.lbr_streams_discarded, 0u);
    EXPECT_LT(est_fixed.lbr_streams_discarded,
              est_stale.lbr_streams_discarded);
}

TEST(BbecEstimator, BiasDetectedOnStickyLoop)
{
    // The SSE Fitter is calibrated to contain sticky hot branches.
    Workload w = makeFitter(FitterVariant::Sse);
    Capture cap = capture(w, /*quirk=*/true);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);

    EXPECT_FALSE(est.biased_branches.empty());
    int flagged = 0;
    for (bool b : est.bias)
        flagged += b;
    EXPECT_GT(flagged, 0);
    for (const BiasedBranch &bb : est.biased_branches) {
        EXPECT_GT(bb.entry0_freq, 0.0);
        EXPECT_GT(bb.entry0_freq, 2.0 * bb.overall_freq);
    }
}

TEST(BbecEstimator, NoBiasWhenQuirkDisabled)
{
    Workload w = makeFitter(FitterVariant::Sse);
    Capture cap = capture(w, /*quirk=*/false);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);
    EXPECT_TRUE(est.biased_branches.empty());
}

TEST(BbecEstimator, RenormalizationScalesByDiscardFraction)
{
    Workload w = makeFitter(FitterVariant::Sse);
    Capture cap = capture(w, /*quirk=*/true);
    BlockMap map(*w.program);

    BbecOptions with;
    BbecOptions without;
    without.renormalize_discards = false;
    BbecEstimates e_with = BbecEstimator(with).estimate(map, cap.profile);
    BbecEstimates e_without =
        BbecEstimator(without).estimate(map, cap.profile);

    ASSERT_GT(e_with.lbr_streams_discarded, 0u);
    double expected = 1.0 / (1.0 - e_with.discardFraction());
    for (uint32_t i = 0; i < map.blocks().size(); i++) {
        if (e_without.lbr[i] <= 0.0)
            continue;
        EXPECT_NEAR(e_with.lbr[i] / e_without.lbr[i], expected, 1e-9);
    }
}

TEST(BbecEstimator, RenormalizationImprovesAggregateAccuracy)
{
    // On a typical workload the discard-induced undercount is global,
    // so the correction improves the mnemonic-level LBR error.
    AnalyzerOptions no_renorm;
    no_renorm.bbec.renormalize_discards = false;
    AnalyzerOptions with_renorm;
    with_renorm.bbec.renormalize_discards = true;
    Profiler plain(MachineConfig{}, CollectorConfig{}, no_renorm);
    Profiler renorm(MachineConfig{}, CollectorConfig{}, with_renorm);
    Workload w = makeTest40();
    ProfiledRun run = plain.run(w);
    AnalysisResult res_plain = plain.analyze(w, run.profile);
    AnalysisResult res_renorm = renorm.analyze(w, run.profile);
    ASSERT_GT(res_plain.estimates.lbr_streams_discarded, 0u);
    double err_plain = avgWeightedError(
        run.true_user_mnemonics,
        Profiler::userMnemonics(res_plain.lbrMix()));
    double err_renorm = avgWeightedError(
        run.true_user_mnemonics,
        Profiler::userMnemonics(res_renorm.lbrMix()));
    EXPECT_LT(err_renorm, err_plain);
}

TEST(BbecEstimator, BiasedBranchesSortedBySource)
{
    Workload w = makeFitter(FitterVariant::Sse);
    Capture cap = capture(w, /*quirk=*/true);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);

    ASSERT_GE(est.biased_branches.size(), 2u);
    for (size_t i = 1; i < est.biased_branches.size(); i++)
        EXPECT_LT(est.biased_branches[i - 1].source,
                  est.biased_branches[i].source);
}

// ---- The dense stream check against the block-by-block walk it
// replaced.

/**
 * The oracle: walk from stream target @p t to stream source @p s one
 * block at a time, looking every block up by address. Returns the
 * credited blocks in walk order, or nullopt when the stream is
 * inconsistent with the map.
 */
std::optional<std::vector<uint32_t>>
walkStream(const BlockMap &map, uint64_t t, uint64_t s,
           uint32_t max_blocks)
{
    uint32_t bi = map.blockAt(t);
    if (bi == BlockMap::npos || map.block(bi).start != t || s < t)
        return std::nullopt;
    std::vector<uint32_t> out;
    for (uint32_t steps = 0; steps < max_blocks; steps++) {
        const MapBlock &blk = map.block(bi);
        out.push_back(bi);
        const Instruction &last = blk.instrs.back();
        if (blk.contains(s)) {
            if (last.addr != s || !last.info().isControl())
                return std::nullopt;
            return out;
        }
        if (last.info().isControl() && last.info().isAlwaysTaken())
            return std::nullopt;
        uint32_t next = map.blockAt(blk.end());
        if (next == BlockMap::npos || map.block(next).start != blk.end())
            return std::nullopt;
        bi = next;
    }
    return std::nullopt;
}

/**
 * The estimator as it was before the dense rewrite: hash-map bias
 * counters and the oracle walk. biased_branches is sorted at the end
 * (it used to come out in hash order).
 */
BbecEstimates
oracleEstimate(const BlockMap &map, const ProfileData &profile,
               const BbecOptions &opts = {})
{
    const size_t n = map.blocks().size();
    BbecEstimates est;
    est.ebs.assign(n, 0.0);
    est.lbr.assign(n, 0.0);
    est.ebs_samples.assign(n, 0);
    est.lbr_weight.assign(n, 0.0);
    est.bias.assign(n, false);

    for (const EbsSample &sample : profile.ebs) {
        uint32_t bi = map.blockAt(sample.ip);
        if (bi == BlockMap::npos) {
            est.ebs_samples_unmapped++;
            continue;
        }
        est.ebs_samples[bi]++;
    }
    for (size_t i = 0; i < n; i++) {
        size_t len = map.block(static_cast<uint32_t>(i)).size();
        est.ebs[i] = static_cast<double>(est.ebs_samples[i]) *
                     static_cast<double>(profile.sim_periods.ebs) /
                     static_cast<double>(len);
    }

    std::unordered_map<uint64_t, uint64_t> entry0_count, slot_count;
    uint64_t total_samples = 0, total_slots = 0;
    for (const LbrStackSample &sample : profile.lbr) {
        if (sample.entries.empty())
            continue;
        total_samples++;
        entry0_count[sample.entries.front().source]++;
        for (const LbrEntry &e : sample.entries) {
            slot_count[e.source]++;
            total_slots++;
        }
    }
    std::unordered_set<uint64_t> biased_sources;
    if (total_samples > 0 && total_slots > 0) {
        for (const auto &[src, cnt] : entry0_count) {
            double freq0 = static_cast<double>(cnt) /
                           static_cast<double>(total_samples);
            double overall = static_cast<double>(slot_count[src]) /
                             static_cast<double>(total_slots);
            if (freq0 >= opts.bias_min_freq &&
                freq0 > opts.bias_ratio * overall) {
                biased_sources.insert(src);
                est.biased_branches.push_back({src, freq0, overall});
            }
        }
    }
    std::sort(est.biased_branches.begin(), est.biased_branches.end(),
              [](const BiasedBranch &a, const BiasedBranch &b) {
                  return a.source < b.source;
              });

    std::vector<double> biased_credit(n, 0.0);
    for (const LbrStackSample &sample : profile.lbr) {
        const size_t depth = sample.entries.size();
        if (depth < 2)
            continue;
        const double weight = 1.0 / static_cast<double>(depth - 1);
        bool sample_biased = false;
        for (const LbrEntry &e : sample.entries)
            if (biased_sources.count(e.source) > 0)
                sample_biased = true;
        for (size_t i = 1; i < depth; i++) {
            est.lbr_streams_total++;
            std::optional<std::vector<uint32_t>> credited =
                walkStream(map, sample.entries[i - 1].target,
                           sample.entries[i].source, opts.max_walk_blocks);
            if (!credited) {
                est.lbr_streams_discarded++;
                continue;
            }
            for (uint32_t bi : *credited) {
                est.lbr_weight[bi] += weight;
                if (sample_biased)
                    biased_credit[bi] += weight;
            }
        }
    }
    double lbr_scale = static_cast<double>(profile.sim_periods.lbr);
    if (opts.renormalize_discards && est.lbr_streams_total > 0 &&
        est.lbr_streams_discarded < est.lbr_streams_total)
        lbr_scale /= 1.0 - est.discardFraction();
    for (size_t i = 0; i < n; i++)
        est.lbr[i] = est.lbr_weight[i] * lbr_scale;

    for (uint64_t src : biased_sources) {
        uint32_t bi = map.blockAt(src);
        if (bi != BlockMap::npos)
            est.bias[bi] = true;
    }
    for (size_t i = 0; i < n; i++)
        if (est.lbr_weight[i] > 0.0 &&
            biased_credit[i] / est.lbr_weight[i] > opts.biased_credit_frac)
            est.bias[i] = true;
    return est;
}

/** Bitwise equality of two spans (distinguishes -0.0 and NaN bits). */
template <typename T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

void
expectBitwiseEqual(const BbecEstimates &got, const BbecEstimates &want)
{
    EXPECT_TRUE(sameBits(got.ebs, want.ebs));
    EXPECT_TRUE(sameBits(got.lbr, want.lbr));
    EXPECT_TRUE(sameBits(got.ebs_samples, want.ebs_samples));
    EXPECT_TRUE(sameBits(got.lbr_weight, want.lbr_weight));
    EXPECT_EQ(got.bias, want.bias);
    ASSERT_EQ(got.biased_branches.size(), want.biased_branches.size());
    for (size_t i = 0; i < got.biased_branches.size(); i++) {
        const BiasedBranch &g = got.biased_branches[i];
        const BiasedBranch &w = want.biased_branches[i];
        EXPECT_EQ(g.source, w.source);
        EXPECT_EQ(std::memcmp(&g.entry0_freq, &w.entry0_freq,
                              sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&g.overall_freq, &w.overall_freq,
                              sizeof(double)), 0);
    }
    EXPECT_EQ(got.lbr_streams_total, want.lbr_streams_total);
    EXPECT_EQ(got.lbr_streams_discarded, want.lbr_streams_discarded);
    EXPECT_EQ(got.ebs_samples_unmapped, want.ebs_samples_unmapped);
}

/** How a verdict sweep went, for coverage assertions. */
struct SweepCounts
{
    size_t pairs = 0;
    size_t accepted = 0;
    size_t multi_block = 0; ///< Accepted streams spanning > 1 block.
};

/**
 * Compare streamBlocks with the oracle walk on every pair of
 * candidate targets (block starts, mid-block addresses, an unmapped
 * address) and sources (block-closing instructions, mid-block
 * addresses, unmapped addresses), which includes every s < t pair.
 */
SweepCounts
sweepVerdicts(const BlockMap &map, uint32_t max_blocks)
{
    std::vector<uint64_t> targets = {0};
    std::vector<uint64_t> sources = {0,
                                     map.blocks().back().end() + 64};
    for (const MapBlock &blk : map.blocks()) {
        targets.push_back(blk.start);
        sources.push_back(blk.instrs.back().addr);
        if (blk.size() > 1) {
            targets.push_back(blk.instrs[1].addr);
            sources.push_back(blk.instrs.front().addr);
        }
    }
    SweepCounts counts;
    for (uint64_t t : targets) {
        for (uint64_t s : sources) {
            counts.pairs++;
            std::optional<std::vector<uint32_t>> want =
                walkStream(map, t, s, max_blocks);
            std::optional<StreamBlocks> got =
                streamBlocks(map, t, s, max_blocks);
            if (got.has_value() != want.has_value()) {
                ADD_FAILURE() << "verdicts differ" << std::hex
                              << " t=0x" << t << " s=0x" << s;
                return counts;
            }
            if (!got)
                continue;
            counts.accepted++;
            std::vector<uint32_t> range;
            for (uint32_t bi = got->first; bi <= got->last; bi++)
                range.push_back(bi);
            if (range != *want) {
                ADD_FAILURE() << "credited blocks differ" << std::hex
                              << " t=0x" << t << " s=0x" << s;
                return counts;
            }
            if (got->last > got->first)
                counts.multi_block++;
        }
    }
    return counts;
}

/** A collect-only profile of @p w (no ground-truth instrumentation). */
ProfileData
collectProfile(const Workload &w, uint64_t max_instructions)
{
    CollectorConfig cc;
    cc.runtime_class = w.runtime_class;
    cc.max_instructions = max_instructions;
    cc.seed = w.exec_seed;
    return Collector::collect(*w.program, MachineConfig{}, cc);
}

/** The stream check and estimator against the oracle on one map. */
void
expectMatchesOracle(const BlockMap &map, const ProfileData &profile)
{
    SweepCounts wide = sweepVerdicts(map, 4096);
    EXPECT_GT(wide.accepted, 0u);
    EXPECT_GT(wide.multi_block, 0u);
    EXPECT_LT(wide.accepted, wide.pairs);
    // A tight cap exercises the max_walk_blocks boundary on every pair.
    SweepCounts tight = sweepVerdicts(map, 2);
    EXPECT_LT(tight.accepted, wide.accepted);

    expectBitwiseEqual(BbecEstimator().estimate(map, profile),
                       oracleEstimate(map, profile));
    BbecOptions opts;
    opts.max_walk_blocks = 2;
    opts.renormalize_discards = false;
    expectBitwiseEqual(BbecEstimator(opts).estimate(map, profile),
                       oracleEstimate(map, profile, opts));
}

TEST(BbecStreamCheck, MatchesWalkOnTest40StaticAndPatched)
{
    Workload w = makeTest40();
    ProfileData profile = collectProfile(w, 1'000'000);
    BlockMap stat(*w.program, {.patch_kernel_text = false});
    expectMatchesOracle(stat, profile);
    BlockMap patched(*w.program, {.patch_kernel_text = true});
    expectMatchesOracle(patched, profile);
}

TEST(BbecStreamCheck, MatchesWalkOnKernelBenchStaleAndPatched)
{
    Workload w = makeKernelBench();
    ProfileData profile = collectProfile(w, 1'000'000);
    BlockMap stale(*w.program, {.patch_kernel_text = false});
    BbecEstimates est = BbecEstimator().estimate(stale, profile);
    // The stale map must actually exercise the discard path.
    EXPECT_GT(est.lbr_streams_discarded, 0u);
    expectMatchesOracle(stale, profile);
    BlockMap patched(*w.program, {.patch_kernel_text = true});
    expectMatchesOracle(patched, profile);
}

TEST(BbecStreamCheck, MaxWalkBlocksBoundary)
{
    // A stream spanning d + 1 blocks needs max_walk_blocks > d: at
    // last - first == max - 1 it is accepted, at == max rejected.
    Workload w = makeTest40();
    BlockMap map(*w.program);
    size_t checked = 0;
    for (const MapBlock &from : map.blocks()) {
        for (const MapBlock &to : map.blocks()) {
            uint64_t t = from.start, s = to.instrs.back().addr;
            std::optional<StreamBlocks> span =
                streamBlocks(map, t, s, 4096);
            if (!span || span->last == span->first)
                continue;
            uint32_t d = span->last - span->first;
            EXPECT_TRUE(streamBlocks(map, t, s, d + 1).has_value());
            EXPECT_TRUE(walkStream(map, t, s, d + 1).has_value());
            EXPECT_FALSE(streamBlocks(map, t, s, d).has_value());
            EXPECT_FALSE(walkStream(map, t, s, d).has_value());
            checked++;
        }
    }
    EXPECT_GT(checked, 0u);
}

TEST(Analyzer, FusedEstimateFollowsClassifier)
{
    Workload w = makeTest40();
    w.max_instructions = 1'000'000;
    Capture cap = capture(w);

    Analyzer analyzer;
    AnalysisResult res = analyzer.analyze(*w.program, cap.profile);
    for (uint32_t i = 0; i < res.map.blocks().size(); i++) {
        double expected = res.choice[i] == BbecSource::Ebs
                              ? res.estimates.ebs[i]
                              : res.estimates.lbr[i];
        EXPECT_DOUBLE_EQ(res.hbbp[i], expected);
    }
}

TEST(Analyzer, FeaturesMatchMapBlocks)
{
    Workload w = makeTest40();
    w.max_instructions = 500'000;
    Capture cap = capture(w);
    Analyzer analyzer;
    AnalysisResult res = analyzer.analyze(*w.program, cap.profile);
    ASSERT_EQ(res.features.size(), res.map.blocks().size());
    for (uint32_t i = 0; i < res.map.blocks().size(); i++) {
        EXPECT_DOUBLE_EQ(res.features[i].length,
                         static_cast<double>(res.map.block(i).size()));
        EXPECT_GE(res.features[i].branch_density, 0.0);
        EXPECT_LE(res.features[i].branch_density, 1.0);
    }
}

TEST(Analyzer, TrueMapBbecProjectsByAddress)
{
    auto lp = testutil::makeLoopProgram(9);
    Instrumenter instr(*lp.program, true);
    ExecutionEngine engine(*lp.program, MachineConfig{}, 1);
    engine.addObserver(&instr);
    engine.run();

    BlockMap map(*lp.program);
    std::vector<double> truth = trueMapBbec(map, instr.bbecByAddr());
    ASSERT_EQ(truth.size(), 3u);
    EXPECT_DOUBLE_EQ(truth[1], 9.0);
}

} // namespace
} // namespace hbbp
