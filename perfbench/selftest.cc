/**
 * @file
 * Checks of the fleet benchmark's arithmetic (benchstats.hh) on
 * hand-built inputs: percentile selection and its sample count, self
 * time from nested spans, and open-loop lateness and due-time latency.
 * Exits non-zero on the first failed check.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "benchstats.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        failures++;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testPercentile()
{
    // 1..10 shuffled: nearest rank p50 = 5th value, p90 = 9th.
    std::vector<double> v = {7, 3, 10, 1, 9, 2, 8, 5, 4, 6};
    Percentile p50 = percentile(v, 0.5);
    check(near(p50.value, 5) && p50.samples == 10 && p50.beyond == 5,
          "p50 of 1..10 is 5 with 5 beyond");
    Percentile p90 = percentile(v, 0.9);
    check(near(p90.value, 9) && p90.beyond == 1,
          "p90 of 1..10 is 9 with 1 beyond");
    // 100 samples: p90 has 10 samples past it.
    std::vector<double> h;
    for (int i = 100; i >= 1; i--)
        h.push_back(i);
    Percentile q = percentile(h, 0.9);
    check(near(q.value, 90) && q.samples == 100 && q.beyond == 10,
          "p90 of 1..100 is 90 with 10 beyond");
    check(near(percentile({42}, 0.9).value, 42),
          "one sample is every percentile");
    check(percentile({}, 0.5).samples == 0, "empty set has no samples");
    check(near(median({1, 2, 3, 4}), 2), "median of 4 takes rank 2");
}

void
testSelfTime()
{
    // query [0,100] with children parse [10,20], analysis [20,80]
    // holding blockmap [20,30] and bbec [25,60] (overlapping), and a
    // child that overruns its parent [90,120].
    std::vector<Span> spans = {
        {1, 0, "query", "q1", 0, 100},
        {2, 1, "parse", "q1", 10, 20},
        {3, 1, "analysis", "q1", 20, 80},
        {4, 3, "blockmap", "q1", 20, 30},
        {5, 3, "bbec", "q1", 25, 60},
        {6, 1, "render", "q1", 90, 120},
    };
    std::vector<double> self = selfTimes(spans);
    check(near(self[0], 100 - 10 - 60 - 10),
          "root self excludes children, clipped to the root");
    check(near(self[1], 10), "a leaf span is all self time");
    check(near(self[2], 60 - 40),
          "overlapping children count once");
    check(near(self[5], 30), "a leaf's own duration is unclipped");
    // A second op sharing names: self time sums per name.
    spans.push_back({7, 0, "query", "q2", 200, 250});
    auto by = selfTimeByName(spans);
    check(near(by["query"], 20 + 50), "self time sums per name");
    check(near(by["bbec"], 35), "nested leaf keeps its duration");
}

void
testOpenLoop()
{
    std::vector<double> due = poissonSchedule(10.0, 1010.0, 4.0, 7);
    check(due.size() > 3800 && due.size() < 4200,
          "4/s over 1000 s is about 4000 due times");
    check(std::is_sorted(due.begin(), due.end()) && due.front() >= 10.0 &&
              due.back() < 1010.0,
          "due times are ordered and inside the window");
    check(due == poissonSchedule(10.0, 1010.0, 4.0, 7),
          "one seed gives one schedule");
    check(due != poissonSchedule(10.0, 1010.0, 4.0, 8),
          "another seed gives another schedule");
    check(poissonSchedule(0, 1, 0, 1).empty(), "zero rate schedules none");
    OpenLoopOp on_time{1.0, 1.0, 1.25};
    OpenLoopOp late{2.0, 2.5, 2.75};
    check(near(lateness(on_time), 0.0) && near(dueLatency(on_time), 0.25),
          "an on-time op's latency is its service time");
    check(near(lateness(late), 0.5) && near(dueLatency(late), 0.75),
          "a late op is charged its wait from the due time");
    OpenLoopOp early{3.0, 2.9, 3.1};
    check(near(lateness(early), 0.0), "lateness is never negative");
}

} // namespace

int
main()
{
    testPercentile();
    testSelfTime();
    testOpenLoop();
    if (failures == 0)
        std::printf("fleetbench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
