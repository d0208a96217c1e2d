/**
 * @file
 * The fleet benchmark's own arithmetic: percentile selection with its
 * sample count, self time from nested spans, and open-loop lateness
 * and due-time latency. Header-only and free of the hbbp library, so
 * selftest.cc checks it on hand-built inputs.
 */

#ifndef PERFBENCH_BENCHSTATS_HH
#define PERFBENCH_BENCHSTATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** One percentile of a sample set, with the counts that qualify it. */
struct Percentile
{
    double value = 0.0;
    size_t samples = 0; ///< Size of the set it was taken from.
    size_t beyond = 0;  ///< Samples strictly past its rank.
};

/**
 * Nearest-rank percentile: the smallest sample with at least a
 * fraction @p q of the set at or below it (rank ceil(q * n), 1-based).
 * An empty set yields a zero value with zero samples.
 */
inline Percentile
percentile(std::vector<double> values, double q)
{
    Percentile p;
    p.samples = values.size();
    if (values.empty())
        return p;
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size()) - 1e-9));
    rank = std::clamp<size_t>(rank, 1, values.size());
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    p.value = values[rank - 1];
    p.beyond = values.size() - rank;
    return p;
}

/** The median as percentile(values, 0.5). */
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5).value;
}

/**
 * One timed interval. Spans of one push or query share an op id;
 * parent 0 marks the op's root span.
 */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    std::string op;
    double start_ns = 0.0;
    double end_ns = 0.0;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that the union of its direct children's intervals covers (children
 * are clipped to the parent, overlaps counted once). Indexed like
 * @p spans.
 */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans.size(); i++)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans.size());
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const Span &p = spans[it->second];
        double a = std::max(s.start_ns, p.start_ns);
        double b = std::min(s.end_ns, p.end_ns);
        if (b > a)
            kids[it->second].push_back({a, b});
    }
    std::vector<double> self(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); i++) {
        std::vector<std::pair<double, double>> &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, cur_a = 0.0, cur_b = 0.0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
    }
    return self;
}

/** Self time summed per span name. */
inline std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); i++)
        out[spans[i].name] += self[i];
    return out;
}

/**
 * One open-loop operation: when it was due, when the generator
 * actually sent it, and when it completed (seconds on one clock).
 */
struct OpenLoopOp
{
    double due = 0.0;
    double sent = 0.0;
    double done = 0.0;
};

/** How late the generator sent @p op (never negative). */
inline double
lateness(const OpenLoopOp &op)
{
    return std::max(0.0, op.sent - op.due);
}

/**
 * Latency timed from the due time, so a stall that delays later sends
 * is charged to them rather than hidden.
 */
inline double
dueLatency(const OpenLoopOp &op)
{
    return op.done - op.due;
}

/**
 * Due times of a Poisson arrival process at @p rate over [t0, t_end):
 * independent users, exponential gaps drawn from a splitmix64 stream
 * seeded by @p seed, so one seed gives one schedule on every platform.
 */
inline std::vector<double>
poissonSchedule(double t0, double t_end, double rate, uint64_t seed)
{
    std::vector<double> due;
    if (rate <= 0.0)
        return due;
    uint64_t state = seed;
    auto next01 = [&state] {
        uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        z ^= z >> 31;
        return static_cast<double>(z >> 11) * 0x1.0p-53;
    };
    for (double t = t0;;) {
        t += -std::log(1.0 - next01()) / rate;
        if (t >= t_end)
            break;
        due.push_back(t);
    }
    return due;
}

} // namespace perfbench

#endif // PERFBENCH_BENCHSTATS_HH
