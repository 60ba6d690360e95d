//===- pipebench/Trace.h - In-memory spans for the traced run ---*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The span recorder of the benchmark's traced run.  Spans are recorded
/// from the benchmark's own code around each call into a layer of src/
/// (workloads, cfg, profile, core, sim, serialize, exec); nothing
/// inside the library is instrumented.  A span has a name, start and end,
/// the span that caused it (the innermost span open on the same thread)
/// and the id of the cell it belongs to.  Spans stay in memory until the
/// run ends; then the per-layer self times are derived and the spans are
/// written out as TSV.
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_TRACE_H
#define PIPEBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p Start.
inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

class Tracer {
public:
  static constexpr int64_t kNoParent = -1;

  struct Span {
    const char *Name;
    Clock::time_point Start;
    Clock::time_point End;
    int64_t Parent;
    uint32_t Cell;
  };

  /// Opens a span on the calling thread, nested under the span the thread
  /// has open; returns its id for end().
  size_t begin(const char *Name, uint32_t Cell);
  void end(size_t Id);

  /// Adds \p Value to the named counter.
  void count(const std::string &Name, double Value);

  /// Sum over spans named \p Name of duration minus the part covered by
  /// their child spans, in milliseconds.
  std::map<std::string, double> selfTimesMs() const;
  std::map<std::string, double> counters() const;

  /// Writes one line per span: id, parent, cell, name, start and end in
  /// microseconds from the first span.  False on an I/O error.
  bool writeTsv(const std::string &Path) const;

private:
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
  std::map<std::string, double> Counters;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name, uint32_t Cell)
      : T(T), Id(T ? T->begin(Name, Cell) : 0) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  size_t Id;
};

} // namespace pipebench

#endif // PIPEBENCH_TRACE_H
