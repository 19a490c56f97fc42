//===- perfbench/main.cpp - Benchmark driver ------------------------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload in a closed loop (one caller, each top-level call
/// issued when the previous one returned) and prints its metrics; the
/// last stdout line is one JSON object
///   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--setups <n>] [--workers <n>] [--out <dir>] [--commit <id>]
///
/// --trace 0 reports the end-to-end metrics.  --trace 1 reports the
/// per-layer metrics: an untraced and a traced stretch of the same loop
/// (their throughput ratio is the tracing overhead), a walk timing each
/// layer's public functions over the workload's shards, a 1-versus-N
/// worker comparison and a fixed-cost probe; the spans go to
/// <out>/trace_<workload>.json as Chrome trace events.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "simd/DoubleLanes.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Setups = 10;
  unsigned Workers = DefaultWorkers;
  std::string Out = ".bench_build/perfbench";
  std::string Commit = "unknown";
};

/// Calls a run makes at least, whatever --seconds says: enough that ten
/// samples lie beyond the reported p90.
constexpr size_t MinCalls = 100;
/// Groups the calls of a stretch are split into for the throughput and
/// latency medians.
constexpr size_t CallGroups = 10;
/// Span budget of a traced run, and the share the traced stretch of the
/// call loop may use (the rest is left for the layer walk, at most 11
/// spans per shard, and the fixed-cost probes).
constexpr size_t SpanCapacity = 100000;
constexpr size_t LoopSpanLimit = 60000;
/// Calls whose peak RSS is sampled (at most; at least 5, within 1 s).
constexpr size_t RssCalls = 64;
/// Repetitions of the fixed-cost probe.
constexpr unsigned FixedProbeReps = 2000;

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile, \p P in (0, 1].
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// Calls, shards and oracle outcomes of one stretch of the closed loop.
struct Stretch {
  std::vector<double> CallNs;
  std::vector<size_t> Shards;
  /// Peak RSS of each call, when sampled.
  std::vector<double> PeakRssMb;
  size_t Attempted = 0;
  size_t Failed = 0;
  uint64_t Sweeps = 0;

  size_t totalShards() const {
    size_t N = 0;
    for (size_t S : Shards)
      N += S;
    return N;
  }

  /// Median over CallGroups consecutive groups of calls of
  /// (shards / time spent in calls).
  double shardsPerSecond() const {
    std::vector<double> Rates;
    const size_t N = CallNs.size();
    const size_t G = std::min(CallGroups, N);
    for (size_t I = 0; I != G; ++I) {
      double Ns = 0, Sh = 0;
      for (size_t C = I * N / G; C != (I + 1) * N / G; ++C) {
        Ns += CallNs[C];
        Sh += static_cast<double>(Shards[C]);
      }
      if (Ns > 0)
        Rates.push_back(Sh / (Ns * 1e-9));
    }
    return median(Rates);
  }

  /// Median over CallGroups consecutive groups of calls of each group's
  /// \p P percentile of call time, in ms: a stretch of the run slowed by
  /// the host's other tenants moves one group's tail, not the result.
  double callPercentileMs(double P) const {
    std::vector<double> Tails;
    const size_t N = CallNs.size();
    const size_t G = std::min(CallGroups, N);
    for (size_t I = 0; I != G; ++I)
      Tails.push_back(
          percentile(std::vector<double>(CallNs.begin() + I * N / G,
                                         CallNs.begin() + (I + 1) * N / G),
                     P));
    return median(Tails) / 1e6;
  }
};

/// Restarts the peak-RSS count (VmHWM) at the current RSS (Linux >= 4.0).
bool restartPeakRss() {
  std::ofstream OS("/proc/self/clear_refs");
  OS << "5";
  OS.close();
  return static_cast<bool>(OS);
}

/// A "Vm...:" field of /proc/self/status in MiB, or -1 when unavailable.
double procStatusMb(const std::string &Field) {
  std::ifstream IS("/proc/self/status");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind(Field, 0) == 0)
      return std::stod(Line.substr(Field.size())) / 1024.0; // in kB
  return -1;
}

/// Peak RSS in MiB since the last restart, or the process-lifetime
/// ru_maxrss when /proc is unavailable.
double peakRssMb() {
  if (const double Hwm = procStatusMb("VmHWM:"); Hwm >= 0)
    return Hwm;
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // in KiB
}

unsigned ReportedFailures = 0;

/// One checked call; only Workload::call is inside the timed interval.
/// With \p SampleRss the heap's free pages are returned to the system and
/// the peak RSS restarted before the call, and the peak is read after it,
/// into S.PeakRssMb: every sampled call starts from the same trimmed heap
/// and faults in exactly what it touches.  Left untrimmed, what a call
/// found already resident depended on which thread had freed what, and
/// the merge's figure fell into one of two modes 10 MB apart from
/// process to process.
void timedCall(Workload &W, unsigned Workers, Tracer *T, Stretch &S,
               bool SampleRss = false) {
  ++S.Attempted;
  std::string Why;
  bool Ok = false;
  try {
    if (SampleRss) {
#ifdef __GLIBC__
      malloc_trim(0);
#endif
      restartPeakRss();
    }
    const uint64_t Sweeps0 = scorpio::Tape::totalReverseSweeps();
    const uint64_t T0 = nowNs();
    const size_t Shards = W.call(Workers, T);
    const uint64_t T1 = nowNs();
    if (SampleRss)
      S.PeakRssMb.push_back(peakRssMb());
    S.Sweeps += scorpio::Tape::totalReverseSweeps() - Sweeps0;
    S.CallNs.push_back(static_cast<double>(T1 - T0));
    S.Shards.push_back(Shards);
    Ok = W.check(Why);
  } catch (const std::exception &E) {
    Why = E.what();
  }
  if (!Ok) {
    ++S.Failed;
    if (ReportedFailures++ < 5)
      std::cerr << "perfbench: call failed: " << Why << "\n";
  }
}

/// Moves the calling thread round the CPUs it may run on, one at a
/// time.  On a shared host the vCPUs run at different speeds (a kernels
/// run pinned to one ran 28k or 36k shards/s depending on the CPU, and
/// which CPU is slow changes over minutes), so a single-threaded loop
/// left where the scheduler puts it measures that CPU.  Rotating every
/// Period makes each group of calls see every CPU alike.  Pool workers
/// keep the full mask they were started with.
class CpuRotation {
public:
  static constexpr uint64_t PeriodNs = 50000000; // 50 ms

  CpuRotation() {
    if (pthread_getaffinity_np(pthread_self(), sizeof(Full), &Full) != 0)
      return;
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Full))
        Cpus.push_back(C);
  }
  ~CpuRotation() {
    if (!Cpus.empty())
      pthread_setaffinity_np(pthread_self(), sizeof(Full), &Full);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Pins the calling thread to the next CPU.
  void next() {
    if (Cpus.size() < 2)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Next++ % Cpus.size()], &One);
    pthread_setaffinity_np(pthread_self(), sizeof(One), &One);
    SwitchAt = nowNs() + PeriodNs;
  }
  /// Pins to the next CPU once the current one has had its period.
  void tick() {
    if (nowNs() >= SwitchAt)
      next();
  }

private:
  cpu_set_t Full;
  std::vector<int> Cpus;
  size_t Next = 0;
  uint64_t SwitchAt = 0;
};

/// The closed loop: calls back to back into \p S until \p Seconds have
/// passed and \p S holds at least \p MinAttempts calls, moving to the
/// next CPU between calls when \p Rotate is given.
void runFor(Workload &W, unsigned Workers, double Seconds, Tracer *T,
            Stretch &S, size_t MinAttempts, CpuRotation *Rotate = nullptr) {
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  do {
    if (Rotate)
      Rotate->tick();
    timedCall(W, Workers, T, S);
  } while (nowNs() < Deadline || S.Attempted < MinAttempts);
}

/// The traced run's loop: short untraced and traced chunks alternate, so
/// drift over the run hits both alike, until \p Seconds have passed or
/// the tracer holds LoopSpanLimit spans.
void runAlternating(Workload &W, unsigned Workers, double Seconds,
                    Tracer &T, Stretch &Untraced, Stretch &Traced) {
  constexpr double ChunkSeconds = 0.1;
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  while (nowNs() < Deadline && T.spans().size() < LoopSpanLimit) {
    runFor(W, Workers, ChunkSeconds, nullptr, Untraced, 0);
    runFor(W, Workers, ChunkSeconds, &T, Traced, 0);
  }
}

/// Median call time at 1 worker over median call time at \p Workers,
/// alternating the two so drift hits both alike.
double measureSpeedup(Workload &W, unsigned Workers, double Seconds,
                      Stretch &Checked) {
  Stretch One, Many;
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  while (nowNs() < Deadline || One.Attempted < 5) {
    timedCall(W, 1, nullptr, One);
    timedCall(W, Workers, nullptr, Many);
  }
  Checked.Attempted += One.Attempted + Many.Attempted;
  Checked.Failed += One.Failed + Many.Failed;
  const double M = median(Many.CallNs);
  return M > 0 ? median(One.CallNs) / M : 0.0;
}

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

/// Every digit of \p X; the caller has rejected non-finite values, which
/// JSON cannot carry.
std::string encodeNumber(double X) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", X);
  return Buf;
}

/// One timed set-up, after writing back what earlier set-ups left dirty
/// so that no set-up pays for another's files.
double timedSetup(Workload &W, const Options &O, Tracer *T) {
  if (W.writesFiles())
    syncFilesystem(O.Out);
  const uint64_t T0 = nowNs();
  W.setup(O.Seed, T);
  return static_cast<double>(nowNs() - T0) * 1e-9;
}

std::string runRecord(const Options &O, size_t Calls) {
  std::ostringstream OS;
  OS << "{\"workload\":\"" << O.Workload << "\",\"seed\":" << O.Seed
     << ",\"seconds\":" << encodeNumber(O.Seconds)
     << ",\"trace\":" << (O.Trace ? 1 : 0)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"workers\":" << O.Workers << ",\"setups\":" << O.Setups
     << ",\"calls\":" << Calls << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"native_lanes\":" << scorpio::simd::NativeLanes
     << ",\"commit\":\"" << O.Commit << "\"}";
  return OS.str();
}

/// Median of the named spans in microseconds (0 when there are none:
/// the layer is not on this workload's path).
double spanMedianUs(const Tracer &T, const char *Name) {
  return median(T.durations(Name)) / 1e3;
}

std::vector<Metric> perLayerMetrics(const Tracer &T, Workload &W,
                                    const Stretch &Untraced,
                                    const Stretch &Traced, double Speedup) {
  std::vector<double> NsPerNode;
  double Nodes = 0, Records = 0;
  for (const Tracer::Span &S : T.spans())
    if (std::strcmp(S.Name, "tape.record") == 0 && S.Count) {
      NsPerNode.push_back(static_cast<double>(S.EndNs - S.StartNs) /
                          static_cast<double>(S.Count));
      Nodes += static_cast<double>(S.Count);
      ++Records;
    }
  const ShardFiles &Files = W.walkedFiles();
  const double Sweeps =
      static_cast<double>(Untraced.Sweeps + Traced.Sweeps);
  const double Shards =
      static_cast<double>(Untraced.totalShards() + Traced.totalShards());
  const CallCounters &C = W.counters();
  const double UntracedRate = Untraced.shardsPerSecond();
  return {
      {"tape.fixed_us", "us", spanMedianUs(T, "tape.fixed")},
      {"tape.record_ns_per_node", "ns", median(NsPerNode)},
      {"tape.nodes_per_shard", "count", Records ? Nodes / Records : 0},
      {"tape.sweeps_per_shard", "count", Shards ? Sweeps / Shards : 0},
      {"core.sweep_us", "us", spanMedianUs(T, "core.sweep")},
      {"core.analyse_us", "us", spanMedianUs(T, "core.analyse")},
      {"graph.us", "us", spanMedianUs(T, "graph")},
      {"tapeio.load_us", "us", spanMedianUs(T, "tapeio.load")},
      {"tapeio.bytes_per_node", "B",
       Files.Nodes ? static_cast<double>(Files.Bytes) /
                         static_cast<double>(Files.Nodes)
                   : 0},
      {"tapeio.save_us", "us", spanMedianUs(T, "tapeio.save")},
      {"service.key_us", "us", spanMedianUs(T, "service.key")},
      {"service.lookup_us", "us", spanMedianUs(T, "service.lookup")},
      {"verify.absint_us", "us", spanMedianUs(T, "verify.absint")},
      {"service.store_us", "us", spanMedianUs(T, "service.store")},
      {"service.hit_ratio", "ratio",
       C.Lookups ? static_cast<double>(C.Hits) / C.Lookups : 0},
      {"service.lookups", "count", static_cast<double>(C.Lookups)},
      {"runtime.speedup", "ratio", Speedup},
      {"runtime.max_tapes_in_flight", "count",
       static_cast<double>(C.MaxTapesInFlight)},
      {"trace.overhead_frac", "ratio",
       UntracedRate > 0 ? 1.0 - Traced.shardsPerSecond() / UntracedRate : 0},
  };
}

int usage() {
  std::cerr << "usage: perfbench --workload <kernels|sobel_tiles|merge_warm> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--setups <n>] [--workers <n>] [--out <dir>] "
               "[--commit <id>]\n";
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const std::string V = Argv[++I];
    try {
      if (Arg == "--workload")
        O.Workload = V;
      else if (Arg == "--seed")
        O.Seed = std::stoull(V);
      else if (Arg == "--seconds")
        O.Seconds = std::stod(V);
      else if (Arg == "--trace")
        O.Trace = std::stoi(V) != 0;
      else if (Arg == "--setups")
        O.Setups = static_cast<unsigned>(std::stoul(V));
      else if (Arg == "--workers")
        O.Workers = static_cast<unsigned>(std::stoul(V));
      else if (Arg == "--out")
        O.Out = V;
      else if (Arg == "--commit")
        O.Commit = V;
      else
        return false;
    } catch (const std::exception &) {
      return false;
    }
  }
  return !O.Workload.empty() && O.Seconds > 0 && O.Setups > 0 &&
         O.Workers > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return usage();
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to time an unoptimised build ("
            << PERFBENCH_BUILD_TYPE << "); configure with Release\n";
  return 2;
#endif

  const std::string WorkDir = O.Out + "/work/" + O.Workload + "-" +
                              std::to_string(static_cast<long>(getpid()));
  std::unique_ptr<Workload> W = makeWorkload(O.Workload, WorkDir, O.Workers);
  if (!W) {
    std::cerr << "perfbench: unknown workload '" << O.Workload << "'\n";
    return usage();
  }

  try {
    Tracer Trace(SpanCapacity);
    Tracer *T = O.Trace ? &Trace : nullptr;

    // One untimed set-up first, so the timed ones see a warm process
    // (thread pool, allocator, registry) like every later call does.
    // Inputs are a pure function of the seed, so the oracle's reference
    // holds for every later set-up too.
    W->setup(O.Seed, nullptr);
    W->prepareOracle();

    std::vector<Metric> Metrics;
    std::vector<double> SetupS;
    size_t Attempted = 0, Failed = 0, Calls = 0;
    std::cout << "perfbench " << O.Workload << ": seed " << O.Seed << ", "
              << O.Workers << " workers, closed loop, 1 caller\n";
    if (!O.Trace) {
      // peak_rss_mb: the median over a few calls of each call's peak
      // RSS, taken before the timed loop so the loop's own bookkeeping
      // (which grows with the call count) is not in it.  The calls run
      // on one worker: how much heap several threads' arenas hold
      // depends on which thread allocated and freed what, which moved
      // the peak by up to 25% from run to run.
      std::cout << "rss before the calls " << procStatusMb("VmRSS:")
                << " MB\n";
      Stretch S, Rss;
      Rss.PeakRssMb.reserve(RssCalls);
      const uint64_t RssDeadline = nowNs() + 1000000000ull;
      while (Rss.Attempted < RssCalls &&
             (Rss.Attempted < 5 || nowNs() < RssDeadline))
        timedCall(*W, 1, nullptr, Rss, /*SampleRss=*/true);
      // The timed set-ups are spread over the run, one before each equal
      // stretch of the call loop, so their median sees the same host as
      // the calls do rather than the first moments of the process; each
      // starts on the next CPU of the rotation.
      CpuRotation Rotate;
      for (unsigned I = 0; I != O.Setups; ++I) {
        Rotate.next();
        SetupS.push_back(timedSetup(*W, O, nullptr));
        runFor(*W, O.Workers, O.Seconds / O.Setups, nullptr, S,
               I + 1 == O.Setups ? MinCalls : 0, &Rotate);
      }
      Attempted = S.Attempted + Rss.Attempted;
      Failed = S.Failed + Rss.Failed;
      Calls = S.CallNs.size();
      std::cout << "calls " << Calls << ", shards " << S.totalShards()
                << ", failed " << S.Failed << "\n";
      Metrics = {
          {"setup_s", "s", median(SetupS)},
          {"shards_per_s", "1/s", S.shardsPerSecond()},
          {"call_p50_ms", "ms", S.callPercentileMs(0.5)},
          {"call_p90_ms", "ms", S.callPercentileMs(0.9)},
          {"peak_rss_mb", "MB", median(Rss.PeakRssMb)},
      };
      std::cout << "failed_frac " << encodeNumber(
                                         static_cast<double>(Failed) /
                                         static_cast<double>(Attempted))
                << "\n";
    } else {
      SetupS.push_back(timedSetup(*W, O, &Trace));
      Stretch Untraced, Traced;
      runAlternating(*W, O.Workers, 0.7 * O.Seconds, Trace, Untraced, Traced);
      for (unsigned I = 0; I != FixedProbeReps; ++I) {
        ScopedSpan Span(T, "tape.fixed");
        scorpio::Analysis A;
        A.input("x", 0.0, 1.0);
      }
      W->walkLayers(Trace);
      Stretch Probe;
      const double Speedup =
          measureSpeedup(*W, O.Workers, 0.15 * O.Seconds, Probe);
      Attempted = Untraced.Attempted + Traced.Attempted + Probe.Attempted;
      Failed = Untraced.Failed + Traced.Failed + Probe.Failed;
      Calls = Untraced.CallNs.size() + Traced.CallNs.size();
      std::cout << "calls " << Untraced.CallNs.size() << " untraced + "
                << Traced.CallNs.size() << " traced, spans "
                << Trace.spans().size() << ", failed " << Failed << "\n\n"
                << Trace.summaryTable() << "\n";
      Metrics = perLayerMetrics(Trace, *W, Untraced, Traced, Speedup);
      const std::string TracePath =
          O.Out + "/trace_" + O.Workload + ".json";
      if (!Trace.writeChromeTrace(TracePath, runRecord(O, Calls)))
        std::cerr << "perfbench: cannot write " << TracePath << "\n";
      else
        std::cout << "trace written to " << TracePath << "\n";
    }
    std::cout << "setup_s of each set-up:";
    for (double X : SetupS)
      std::cout << " " << X;
    std::cout << "\n";

    for (const Metric &M : Metrics)
      if (!std::isfinite(M.Value))
        throw std::runtime_error("metric " + M.Name + " is not finite");
    std::cout << "\n";
    for (const Metric &M : Metrics) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf), "%-28s %16.6g %s\n", M.Name.c_str(),
                    M.Value, M.Unit.c_str());
      std::cout << Buf;
    }
    std::cout << "# run: " << runRecord(O, Calls) << "\n";
    std::ostringstream J;
    J << "{\"correct\": " << (Failed == 0 ? "true" : "false")
      << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
      << ", \"metrics\": {";
    for (size_t I = 0; I != Metrics.size(); ++I)
      J << (I ? ", " : "") << "\"" << Metrics[I].Name
        << "\": {\"value\": " << encodeNumber(Metrics[I].Value)
        << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
    J << "}}";
    std::cout << J.str() << std::endl;
  } catch (const std::exception &E) {
    std::cerr << "perfbench: " << E.what() << "\n";
    return 3;
  }
  return 0;
}
