// Unit tests for the benchmark's own helpers (perfbench/src/trace.h).
// Build and run: ctest --test-dir <perfbench build dir>.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "trace_test:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  CHECK(Percentile({}, 0.5) == 0.0);
  CHECK(Percentile({7.0}, 0.99) == 7.0);
  CHECK(Near(Percentile({4, 1, 3, 2}, 0.5), 2.5));
  CHECK(Near(Percentile({1, 2, 3, 4, 5}, 0.5), 3.0));
  CHECK(Near(Percentile({1, 2, 3, 4, 5}, 0.0), 1.0));
  CHECK(Near(Percentile({1, 2, 3, 4, 5}, 1.0), 5.0));
  // rank 0.9 * 10 = 9 → the 10th of 11 values.
  std::vector<double> v;
  for (int i = 0; i <= 10; ++i) v.push_back(i * 10.0);
  CHECK(Near(Percentile(v, 0.9), 90.0));
  CHECK(Near(Percentile(v, 0.95), 95.0));
  CHECK(Near(Median({9, 1, 5}), 5.0));
}

void TestGeomean() {
  CHECK(Geomean({}) == 0.0);
  CHECK(Near(Geomean({2, 8}), 4.0));
  CHECK(Near(Geomean({1, 10, 100}), 10.0));
  CHECK(Near(Geomean({3, 3, 3}), 3.0));
}

void TestSelfTime() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: 40 covered)
  // and a grandchild [12,18) under the first child.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},
      {"a.x", 12, 18, 1, 1},
      {"other", 200, 260, -1, 2},
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  CHECK(self[0] == 60);
  CHECK(self[1] == 14);
  CHECK(self[2] == 30);
  CHECK(self[3] == 6);
  CHECK(self[4] == 60);

  // A child that outlives its parent is clipped to the parent's interval.
  std::vector<Span> clipped = {{"p", 0, 10, -1, 1}, {"c", 5, 20, 0, 1}};
  CHECK(SelfTimesNs(clipped)[0] == 5);

  SpanRecorder rec;
  int64_t outer = rec.Begin("outer", 7);
  int64_t inner = rec.Add("inner", 7, rec.spans()[outer].start_ns,
                          rec.spans()[outer].start_ns + 1, outer);
  rec.End(outer);
  CHECK(rec.spans().size() == 2);
  CHECK(rec.spans()[inner].parent == outer);
  CHECK(rec.spans()[outer].end_ns >= rec.spans()[outer].start_ns);
  std::vector<Span> merged = {{"x", 0, 1, -1, 9}};
  AppendSpans(clipped, &merged);
  CHECK(merged.size() == 3);
  CHECK(merged[1].parent == -1);
  CHECK(merged[2].parent == 1);
  CHECK(SpansToJsonLines(clipped) ==
        "{\"name\": \"p\", \"start_ns\": 0, \"end_ns\": 10, \"parent\": -1, "
        "\"stmt\": 1}\n"
        "{\"name\": \"c\", \"start_ns\": 5, \"end_ns\": 20, \"parent\": 0, "
        "\"stmt\": 1}\n");
}

void TestNormalize() {
  CHECK(NormalizeLiterals("SELECT * FROM patients WHERE patientid = 42") ==
        "SELECT * FROM patients WHERE patientid = ?");
  CHECK(NormalizeLiterals("INSERT INTO t VALUES (7, 'it''s', 1.5)") ==
        "INSERT INTO t VALUES (?, ?, ?)");
  // Digits inside identifiers are not literals.
  CHECK(NormalizeLiterals("SELECT c1 FROM t2 WHERE x BETWEEN 3 AND 23") ==
        "SELECT c1 FROM t2 WHERE x BETWEEN ? AND ?");
  CHECK(RepeatShare({}) == 0.0);
  CHECK(Near(RepeatShare({"a", "b", "a", "a"}), 0.5));
  CHECK(RepeatShare({"a", "b"}) == 0.0);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestGeomean();
  perfbench::TestSelfTime();
  perfbench::TestNormalize();
  if (perfbench::failures != 0) return 1;
  std::printf("trace_test: all checks passed\n");
  return 0;
}
