// Self-tests of the benchmark's own arithmetic: span self time, the
// stepping-window attribution, the p90 sample floor, and due-time
// latency under a stalled load generator.  Exit code 0 when all pass.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

using namespace pb;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

Span span(const char* name, double start, double end, int parent,
          int rank = 0) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.rank = rank;
  return s;
}

void test_self_time() {
  // rank 0: step [0,10] > rk3 [1,6] > halo [2,3]; rk3 also has an
  // overlapping second child [2.5,4]; fsbm [6,9] is rk3's sibling.
  // rank 1 runs concurrently with no parent link to rank 0's spans.
  std::vector<Span> s = {
      span("step", 0, 10, -1),       // 0
      span("rk3", 1, 6, 0),          // 1
      span("halo", 2, 3, 1),         // 2
      span("mark", 2.5, 4, 1),       // 3
      span("fsbm", 6, 9, 0),         // 4
      span("step", 0, 10, -1, 1),    // 5 (rank 1)
      span("rk3", 0.5, 9.5, 5, 1),   // 6 (rank 1)
  };
  check(near(self_time(s, 1), 5.0 - 2.0),
        "self time subtracts the union of overlapping children");
  check(near(self_time(s, 0), 10.0 - 5.0 - 3.0),
        "self time subtracts direct children only (grandchildren nest)");
  check(near(self_time(s, 2), 1.0), "a leaf's self time is its duration");
  check(near(self_time(s, 5), 1.0),
        "concurrent spans of another rank do not reduce self time");
  check(near(total_self(s, "rk3"), 3.0 + 9.0), "total_self across ranks");
  check(near(covered({{0, 2}, {1, 3}, {5, 6}}, 0.5, 5.5), 2.5 + 0.5),
        "covered() merges overlaps and clips to the window");
}

void test_unattributed() {
  // One window per rank; layer calls are grandchildren of the window.
  std::vector<Span> s = {
      span("win", 0, 10, -1),      // 0
      span("step", 0, 5, 0),       // 1
      span("dyn", 0, 4, 1),        // 2 (1 s of step 1 unattributed)
      span("step", 5, 10, 0),      // 3
      span("dyn", 5, 10, 3),       // 4
      span("win", 0, 10, -1, 1),   // 5 (rank 1: fully covered)
      span("step", 0, 10, 5, 1),   // 6
      span("dyn", 0, 10, 6, 1),    // 7
  };
  check(near(unattributed_fraction(s, "win"), 1.0 / 20.0),
        "unattributed share = window wall no layer call covers");
}

void test_p90_floor() {
  std::vector<double> v(99, 1.0);
  bool refused = false;
  try {
    p90(v);
  } catch (const std::invalid_argument&) {
    refused = true;
  }
  check(refused, "p90 is refused with 99 samples");
  v.clear();
  for (int i = 0; i < 101; ++i) v.push_back(i);
  check(near(p90(v), 90.0), "p90 of 0..100 is 90");
  check(near(tail(std::vector<double>{3, 1, 2}), 3.0),
        "below 100 samples the tail is the slowest sample");
  check(near(median(std::vector<double>{4, 1, 3, 2}), 2.5),
        "median interpolates");
}

void test_stalled_submit() {
  // Jobs due every 10 ms; the system finishes a job the moment it is
  // submitted, except that submitting job 3 stalls for 120 ms.
  OpenLoopPlan plan;
  for (int i = 0; i < 8; ++i) plan.due.push_back(0.01 * i);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> finish(plan.due.size());
  const OpenLoopLog log = run_open_loop(plan, t0, [&](std::size_t i) {
    if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(120));
    finish[i] = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  });
  const std::vector<double> lat = due_latencies(plan, finish);
  check(lat[3] >= 0.12, "the stalled job's latency includes its stall");
  check(lat[4] >= 0.12 - 0.01 && lat[7] >= 0.12 - 0.04,
        "a stalled submit raises later jobs' due-time latency");
  check(log.late_max >= 0.12 - 0.01, "the generator reports how late it ran");
  check(lat[0] < 0.1, "jobs before the stall are not charged for it");
}

}  // namespace

int main() {
  test_self_time();
  test_unattributed();
  test_p90_floor();
  test_stalled_submit();
  std::printf("selftest: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
