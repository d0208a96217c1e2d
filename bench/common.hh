/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.
 */

#ifndef HBBP_BENCH_COMMON_HH
#define HBBP_BENCH_COMMON_HH

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "hbbp/hbbp.hh"
#include "support/strings.hh"
#include "support/vectorops.hh"

namespace hbbp::bench {

/** The CPU model from /proc/cpuinfo, or "unknown" where there is none. */
inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        size_t colon = line.find(':');
        if (!startsWith(line, "model name") || colon == std::string::npos)
            continue;
        size_t first = line.find_first_not_of(" \t", colon + 1);
        if (first != std::string::npos)
            return line.substr(first);
    }
    return "unknown";
}

/**
 * The machine stamp every scale bench JSON carries, as three
 * `"key": value` lines (no trailing comma or newline after the last):
 * nproc, the CPU model and the vector backend dispatch resolved.
 * Each line after the first is indented by two spaces.
 */
inline std::string
machineJson()
{
    std::string out;
    out += format("\"nproc\": %u,\n",
                  std::thread::hardware_concurrency());
    out += format("  \"cpu\": \"%s\",\n", jsonEscape(cpuModel()).c_str());
    out += format("  \"vector_backend\": \"%s\"",
                  name(activeVectorBackend()));
    return out;
}

/** One fully analyzed workload run. */
struct Analyzed
{
    ProfiledRun run;
    AnalysisResult analysis;
    AccuracySummary accuracy;
};

/** Run, analyze and score a workload with the given profiler. */
inline Analyzed
analyzeWorkload(const Profiler &profiler, const Workload &w)
{
    ProfiledRun run = profiler.run(w);
    AnalysisResult analysis = profiler.analyze(w, run.profile);
    AccuracySummary accuracy = profiler.accuracy(run, analysis);
    return Analyzed{std::move(run), std::move(analysis), accuracy};
}

/** Format a count in millions with two decimals. */
inline std::string
millions(double x)
{
    return format("%.2f", x / 1e6);
}

/** Format seconds in a human-friendly way. */
inline std::string
seconds(double s)
{
    if (s >= 3600.0)
        return format("%.1fh", s / 3600.0);
    if (s >= 60.0)
        return format("%.1fm", s / 60.0);
    return format("%.1fs", s);
}

/** Print a headline for a reproduced table/figure. */
inline void
headline(const char *what, const char *paper_summary)
{
    std::printf("==== %s ====\n", what);
    std::printf("paper reference: %s\n\n", paper_summary);
}

} // namespace hbbp::bench

#endif // HBBP_BENCH_COMMON_HH
