//===- tests/determinism_test.cpp - Scheduler-independence suite ----------===//
//
// The scheduling contract: the merged report of the sharded analysis is
// a pure function of the shard list and the analysis options — never
// of the schedule.  This suite pins that down the hard way: every
// registry kernel as a shard, at 1/2/4/8 worker threads, in-process
// and through saveShards + the streaming merge (compressed and raw
// tapes), and demands byte-for-byte identity with the single-threaded
// run.  It is the suite the TSan CI leg runs to flush scheduler races.
//
//===----------------------------------------------------------------------===//

#include "core/ParallelAnalysis.h"

#include "kernels/KernelRegistry.h"
#include "runtime/ThreadPool.h"
#include "support/Diag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

using namespace scorpio;

namespace {

/// Thread counts the suite sweeps.  8 deliberately oversubscribes a
/// 4-thread host: the claim-loop runners are then preempted mid-shard
/// constantly, which is exactly the schedule diversity the
/// byte-identity claim must survive.
constexpr unsigned Threads[] = {1, 2, 4, 8};

/// Builds the all-registry-kernels driver: one shard per kernel, in
/// sorted-name order so every run registers identical shard indices.
ParallelAnalysis makeRegistryDriver() {
  ParallelAnalysis P;
  KernelRegistry &Registry = KernelRegistry::global();
  std::vector<std::string> Names = Registry.names();
  std::sort(Names.begin(), Names.end());
  EXPECT_GE(Names.size(), 17u);
  for (const std::string &Name : Names) {
    const KernelDescriptor *K = Registry.find(Name);
    EXPECT_NE(K, nullptr);
    P.addShard(Name,
               [K] { K->Analyse(Analysis::current(), K->DefaultRanges); });
  }
  return P;
}

std::string runJson(unsigned NumThreads) {
  ParallelAnalysis P = makeRegistryDriver();
  std::ostringstream OS;
  P.run({}, NumThreads).writeJson(OS);
  return OS.str();
}

/// The registry shards written once by saveShards into \p Dir.
std::vector<std::string> saveRegistryShards(const std::string &Dir,
                                            bool Compress) {
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  diag::Expected<std::vector<std::string>> Paths =
      makeRegistryDriver().saveShards(Dir, {}, Compress);
  EXPECT_TRUE(Paths.hasValue()) << Paths.status().message();
  return Paths.valueOr({});
}

/// The streaming merge of \p Paths on \p NumThreads workers.
std::string streamJson(const std::vector<std::string> &Paths,
                       unsigned NumThreads) {
  StreamingMergeOptions Options;
  Options.NumThreads = NumThreads;
  diag::Expected<ParallelAnalysisResult> R =
      ParallelAnalysis::mergeStapStreaming(Paths, Options);
  EXPECT_TRUE(R.hasValue()) << R.status().message();
  if (!R.hasValue())
    return {};
  std::ostringstream OS;
  R.value().writeJson(OS);
  return OS.str();
}

// (The name predates the removal of the steal-seed knob.)
TEST(Determinism, RegistryKernelsInProcessAllThreadCountsAndSeeds) {
  const std::string Reference = runJson(1);
  ASSERT_FALSE(Reference.empty());
  for (const unsigned N : Threads)
    EXPECT_EQ(Reference, runJson(N)) << "threads=" << N;
}

TEST(Determinism, RegistryKernelsStapTransportMatchesInProcess) {
  // Compressed and raw tapes, merged at every worker width.
  const std::string Reference = runJson(1);
  const std::string Dir = ::testing::TempDir() + "/scorpio_determinism_wire";
  for (const bool Compress : {true, false}) {
    const std::vector<std::string> Paths = saveRegistryShards(Dir, Compress);
    for (const unsigned N : Threads)
      EXPECT_EQ(Reference, streamJson(Paths, N))
          << "threads=" << N << " compress=" << Compress;
  }
  std::filesystem::remove_all(Dir);
}

TEST(Determinism, StapDirectoryStreamsIdenticallyAtEveryWidth) {
  // One recording, merged by the streaming consumer at every worker
  // width: the overlapping load/analyse of the runners must not
  // perturb a byte.
  const std::string Reference = runJson(1);
  const std::string Dir =
      ::testing::TempDir() + "/scorpio_determinism_shards";
  const std::vector<std::string> Paths = saveRegistryShards(Dir, true);
  for (const unsigned N : Threads)
    EXPECT_EQ(Reference, streamJson(Paths, N)) << "threads=" << N;
  std::filesystem::remove_all(Dir);
}

TEST(Determinism, ConcurrentDriversOnTheSharedPoolStayIndependent) {
  // Two drivers sharing one pool (the production shape after the
  // pool-hoisting fix): each must still produce its own single-threaded
  // bytes.  WaitGroup scoping is what keeps their completions apart.
  const std::string Reference = runJson(1);
  // Both analyses land on the same registry pool as the jobs below
  // (pools are keyed by thread count): two analyses and their
  // claim-loop runners truly interleave on shared workers, while the
  // two jobs themselves hold two of the four workers.
  rt::ThreadPool &Pool = rt::ThreadPool::shared(4);
  rt::WaitGroup Group;
  std::string A, B;
  const diag::Status SA = Pool.submit([&A] { A = runJson(4); }, &Group);
  const diag::Status SB = Pool.submit([&B] { B = runJson(4); }, &Group);
  ASSERT_TRUE(SA.isOk()) << SA.message();
  ASSERT_TRUE(SB.isOk()) << SB.message();
  Group.wait();
  EXPECT_EQ(Reference, A);
  EXPECT_EQ(Reference, B);
}

} // namespace
