#include "trace.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <unordered_set>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 1.0) * (values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - lo) * (values[hi] - values[lo]);
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / values.size());
}

int64_t SpanRecorder::Begin(std::string name, uint64_t stmt_id, int64_t parent) {
  return Add(std::move(name), stmt_id, NowNs(), 0, parent);
}

void SpanRecorder::End(int64_t index) { spans_[index].end_ns = NowNs(); }

int64_t SpanRecorder::Add(std::string name, uint64_t stmt_id, int64_t start_ns,
                          int64_t end_ns, int64_t parent) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, stmt_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void AppendSpans(const std::vector<Span>& spans, std::vector<Span>* out) {
  const int64_t offset = static_cast<int64_t>(out->size());
  for (Span s : spans) {
    if (s.parent >= 0) s.parent += offset;
    out->push_back(std::move(s));
  }
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::string SpansToJsonLines(const std::vector<Span>& spans) {
  std::string out;
  for (const Span& s : spans) {
    out += "{\"name\": \"" + s.name + "\", \"start_ns\": " +
           std::to_string(s.start_ns) + ", \"end_ns\": " + std::to_string(s.end_ns) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"stmt\": " + std::to_string(s.stmt_id) + "}\n";
  }
  return out;
}

std::string NormalizeLiterals(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  for (size_t i = 0; i < sql.size();) {
    const char c = sql[i];
    if (c == '\'') {
      size_t j = i + 1;
      while (j < sql.size()) {
        if (sql[j] == '\'' && j + 1 < sql.size() && sql[j + 1] == '\'') {
          j += 2;  // escaped quote
        } else if (sql[j] == '\'') {
          break;
        } else {
          ++j;
        }
      }
      out += '?';
      i = std::min(j + 1, sql.size());
      continue;
    }
    const bool starts_word =
        i == 0 || !(std::isalnum(static_cast<unsigned char>(sql[i - 1])) ||
                    sql[i - 1] == '_');
    if (starts_word && std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < sql.size() && (std::isdigit(static_cast<unsigned char>(sql[j])) ||
                                sql[j] == '.')) {
        ++j;
      }
      out += '?';
      i = j;
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

double RepeatShare(const std::vector<std::string>& keys) {
  if (keys.empty()) return 0.0;
  std::unordered_set<std::string> seen;
  size_t repeats = 0;
  for (const std::string& k : keys) {
    if (!seen.insert(k).second) ++repeats;
  }
  return static_cast<double>(repeats) / keys.size();
}

}  // namespace perfbench
