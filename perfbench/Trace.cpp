//===- perfbench/Trace.cpp - In-memory spans and their export -------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace perfbench;

std::vector<double> Tracer::durations(const char *Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs));
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path,
                              const std::string &Metadata) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  const uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  OS << "{\"displayTimeUnit\":\"ns\",\"metadata\":" << Metadata
     << ",\"traceEvents\":[";
  char Buf[256];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"count\":%llu}}",
                  I ? "," : "", S.Name, (S.StartNs - Origin) / 1e3,
                  (S.EndNs - S.StartNs) / 1e3, I,
                  static_cast<long long>(S.Parent),
                  static_cast<unsigned long long>(S.Count));
    OS << Buf;
  }
  OS << "\n]}\n";
  OS.close();
  return static_cast<bool>(OS);
}

std::string Tracer::summaryTable() const {
  struct Row {
    std::vector<double> Durations;
    double SelfNs = 0;
  };
  std::map<std::string, Row> Rows;
  std::vector<double> ChildNs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] +=
          static_cast<double>(S.EndNs - S.StartNs);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const double D = static_cast<double>(Spans[I].EndNs - Spans[I].StartNs);
    Row &R = Rows[Spans[I].Name];
    R.Durations.push_back(D);
    R.SelfNs += D - ChildNs[I];
  }
  std::ostringstream OS;
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf), "%-22s %9s %12s %12s %12s\n", "span",
                "count", "median_us", "total_ms", "self_ms");
  OS << Buf;
  for (auto &[Name, R] : Rows) {
    std::vector<double> &D = R.Durations;
    std::nth_element(D.begin(), D.begin() + D.size() / 2, D.end());
    double Total = 0;
    for (double X : D)
      Total += X;
    std::snprintf(Buf, sizeof(Buf), "%-22s %9zu %12.3f %12.3f %12.3f\n",
                  Name.c_str(), D.size(), D[D.size() / 2] / 1e3, Total / 1e6,
                  R.SelfNs / 1e6);
    OS << Buf;
  }
  return OS.str();
}
