//===- pipebench/Trace.cpp - In-memory spans for the traced run -----------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>

using namespace pipebench;

namespace {
/// Spans the calling thread has open, innermost last.
thread_local std::vector<size_t> OpenSpans;
} // namespace

size_t Tracer::begin(const char *Name, uint32_t Cell) {
  const int64_t Parent =
      OpenSpans.empty() ? kNoParent : static_cast<int64_t>(OpenSpans.back());
  const Clock::time_point Now = Clock::now();
  size_t Id;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Id = Spans.size();
    Spans.push_back({Name, Now, Now, Parent, Cell});
  }
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::end(size_t Id) {
  const Clock::time_point Now = Clock::now();
  OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[Id].End = Now;
}

void Tracer::count(const std::string &Name, double Value) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters[Name] += Value;
}

std::map<std::string, double> Tracer::selfTimesMs() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Ms = [](const Span &S) {
    return std::chrono::duration<double, std::milli>(S.End - S.Start).count();
  };
  // Children nest strictly inside their parent on one thread, so the
  // covered part of a parent is the sum of its children's durations.
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Ms(Spans[I]);
  for (const Span &S : Spans)
    if (S.Parent != kNoParent)
      Self[static_cast<size_t>(S.Parent)] -= Ms(S);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I];
  return Out;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

bool Tracer::writeTsv(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "id\tparent\tcell\tname\tstart_us\tend_us\n");
  const Clock::time_point Origin =
      Spans.empty() ? Clock::time_point() : Spans.front().Start;
  auto Us = [&](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  };
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%zu\t%lld\t%u\t%s\t%.1f\t%.1f\n", I,
                 static_cast<long long>(S.Parent), S.Cell, S.Name,
                 Us(S.Start), Us(S.End));
  }
  return std::fclose(F) == 0;
}
