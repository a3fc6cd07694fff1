// Benchmark-side statistics and tracing helpers for auditbench.
//
// Spans are recorded only around public engine entry points called from the
// benchmark's own code; nothing here reaches into the engine. Each recorder
// belongs to one thread and keeps its spans in memory until the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Linear-interpolated percentile (p in [0, 1]) between closest ranks; 0 for
// an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
// Geometric mean of positive values; 0 for an empty sample.
double Geomean(const std::vector<double>& values);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   // index of the enclosing span in the same list
  uint64_t stmt_id = 0;  // spans of one statement share this id
  int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  // Opens a span and returns its index for End() and as a child's parent.
  int64_t Begin(std::string name, uint64_t stmt_id, int64_t parent = -1);
  void End(int64_t index);
  // Records an already-timed interval.
  int64_t Add(std::string name, uint64_t stmt_id, int64_t start_ns,
              int64_t end_ns, int64_t parent = -1);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Appends `spans` to `*out`, rebasing their parent indices onto `*out`.
void AppendSpans(const std::vector<Span>& spans, std::vector<Span>* out);

// Self time of every span: its duration minus the part of its interval that
// its direct children cover (overlapping children count once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// One JSON object per line: name, start_ns, end_ns, parent (the 0-based line
// of the enclosing span, -1 for none), stmt.
std::string SpansToJsonLines(const std::vector<Span>& spans);

// Replaces numeric and quoted-string literals with '?', so statements that
// differ only in their constants map to the same text.
std::string NormalizeLiterals(const std::string& sql);

// Share of `keys` equal to an earlier element of the sequence.
double RepeatShare(const std::vector<std::string>& keys);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
