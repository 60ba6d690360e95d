//===- tests/test_crash.cpp - Fork-based crashpoint harness -------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// The crash-consistency acceptance tests: each test forks a child that dies
// at the most hostile instant of a write protocol — either via a fault::Plan
// crashpoint (Injector::maybeCrash -> _exit(137), no destructors, no stdio
// flush, exactly like a kill -9) or via a real mid-campaign SIGINT — and the
// parent verifies the recovery guarantees:
//
//   1. CrashMidStore leaves an orphan temp file, never a torn blob; the
//      next process's recovery sweep reaps it and a store heals the key.
//   2. CrashMidJournalRewrite leaves the *old* checkpoint intact: the
//      journal is old-or-new, never torn.
//   3. A campaign crashed mid-checkpoint resumes under --journal and its
//      final checkpoint is bit-identical to an uninterrupted campaign's.
//   4. SIGINT mid-campaign exits 130 after a checkpoint flush, and the
//      rerun resumes the completed cells.
//   5. Two writer processes and a reader hammering one cache directory
//      never observe a torn blob, and the shared counters stay sane.
//
// These tests fork, wait, and run real campaigns, so they carry the "crash"
// label next to "tier1" (see tests/CMakeLists.txt and scripts/check.sh
// --crash).
//
//===----------------------------------------------------------------------===//

#include "fault/Fault.h"
#include "guard/Guard.h"
#include "harness/Engine.h"
#include "serialize/ArtifactCache.h"
#include "support/ExitCodes.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace dmp;

namespace {

std::filesystem::path freshTempDir(const std::string &Tag) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("dmp-crash-" + Tag + "-" + std::to_string(::getpid()));
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  return Dir;
}

/// Forks and runs \p Body in the child; the child exits with Body's return
/// value unless a crashpoint _exit()s it first.  Returns the child's exit
/// code as seen by waitpid (-1 on abnormal termination).
int runForked(const std::function<int()> &Body) {
  const pid_t Pid = ::fork();
  if (Pid == 0) {
    // Keep campaign footers of deliberately-killed children out of the
    // test output.
    std::freopen("/dev/null", "w", stderr);
    ::_exit(Body());
  }
  if (Pid < 0)
    return -1;
  int WStatus = 0;
  if (::waitpid(Pid, &WStatus, 0) != Pid)
    return -1;
  return WIFEXITED(WStatus) ? WEXITSTATUS(WStatus) : -1;
}

/// A plan that fires the single crashpoint \p S on every key.
fault::Plan crashPlan(fault::Site S) {
  fault::Plan Plan;
  Plan.Seed = 1;
  Plan.at(S) = {/*Rate=*/1.0, /*MaxFaultsPerOp=*/~0u, ErrorCode::Invariant};
  return Plan;
}

serialize::Digest digestOf(const std::string &Text) {
  serialize::Hasher H;
  H.update(Text);
  return H.finish();
}

std::vector<uint8_t> payloadOf(const std::string &Text, size_t Pad = 0) {
  std::vector<uint8_t> P(Text.begin(), Text.end());
  P.resize(P.size() + Pad, 0xCD);
  return P;
}

bool anyTempFileUnder(const std::filesystem::path &Dir) {
  std::error_code EC;
  for (auto It = std::filesystem::recursive_directory_iterator(Dir, EC);
       !EC && It != std::filesystem::recursive_directory_iterator(); ++It)
    if (It->is_regular_file(EC) &&
        It->path().filename().string().find(".tmp.") != std::string::npos)
      return true;
  return false;
}

std::vector<workloads::BenchmarkSpec> miniSuite() {
  const std::vector<workloads::BenchmarkSpec> &Suite = workloads::specSuite();
  return {Suite.begin(), Suite.begin() + 2};
}

harness::ExperimentOptions miniOptions() {
  harness::ExperimentOptions Options;
  Options.Profile.MaxInstrs = 150'000;
  Options.Sim.MaxInstrs = 60'000;
  return Options;
}

/// The deterministic value of campaign cell (\p Spec, \p Config) — a pure
/// function of the cell's RNG stream, so a crashed-then-resumed campaign
/// and an uninterrupted one must agree byte-for-byte.
double cellValue(const workloads::BenchmarkSpec &Spec, size_t Config) {
  RNG Rng = harness::ExperimentEngine::cellRng(Spec, Config);
  return static_cast<double>(Rng.next() % 100000);
}

} // namespace

//===----------------------------------------------------------------------===//
// 1. CrashMidStore
//===----------------------------------------------------------------------===//

TEST(CrashStoreTest, MidStoreCrashLeavesOrphanNeverTornBlobAndSweepHeals) {
  const std::filesystem::path Dir = freshTempDir("store");
  const serialize::Digest Key = digestOf("victim");
  const std::vector<uint8_t> Payload = payloadOf("victim-bytes", 2048);

  const int Exit = runForked([&] {
    serialize::ArtifactCache Cache(Dir.string());
    const fault::Injector Inj(crashPlan(fault::Site::CrashMidStore));
    Cache.setFaultInjector(&Inj);
    Cache.store(Key, Payload); // dies between temp write and rename
    return 0;                  // unreachable if the crashpoint fired
  });
  ASSERT_EQ(Exit, exitcode::CrashChild);

  // The child died after writing its temp file but before the rename:
  // debris exists, but the key reads as a clean miss — never Corrupt.
  EXPECT_TRUE(anyTempFileUnder(Dir));
  serialize::ArtifactCache Recovered(Dir.string());
  EXPECT_EQ(Recovered.load(Key).status().code(), ErrorCode::NotFound);

  // The recovery sweep reaps the orphan, and a store heals the key.
  Recovered.sweepNow();
  EXPECT_GE(Recovered.orphansReaped(), 1u);
  EXPECT_FALSE(anyTempFileUnder(Dir));
  ASSERT_TRUE(Recovered.store(Key, Payload).ok());
  const auto Loaded = Recovered.load(Key);
  ASSERT_TRUE(Loaded.ok()) << Loaded.status().toString();
  EXPECT_EQ(*Loaded, Payload);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

//===----------------------------------------------------------------------===//
// 2. CrashMidJournalRewrite
//===----------------------------------------------------------------------===//

TEST(CrashJournalTest, MidRewriteCrashKeepsOldCheckpointNeverTorn) {
  const std::filesystem::path Dir = freshTempDir("journal");
  const serialize::Digest Params = harness::paramsDigest({"cfg-a", "cfg-b"});
  const harness::CellCodec<double> &Codec = harness::doubleCellCodec();

  // A healthy campaign checkpoints two cells.
  {
    auto Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
    harness::CampaignJournal Journal(Cache, "camp/m", Params, 2, 2);
    Journal.record(0, 0, Codec.Encode(10.5));
    Journal.record(0, 1, Codec.Encode(11.5));
    ASSERT_TRUE(Journal.lastCheckpointStatus().ok());
  }

  const int Exit = runForked([&] {
    auto Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
    harness::CampaignJournal Journal(Cache, "camp/m", Params, 2, 2);
    if (Journal.entries() != 2)
      return 3; // resume itself broke; fail loudly with a distinct code
    const fault::Injector Inj(
        crashPlan(fault::Site::CrashMidJournalRewrite));
    Journal.setFaultInjector(&Inj);
    Journal.record(1, 0, Codec.Encode(12.5)); // dies before the rewrite
    return 0;
  });
  ASSERT_EQ(Exit, exitcode::CrashChild);

  // Old-or-new, never torn: the pre-crash checkpoint is fully intact.
  auto Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
  harness::CampaignJournal Reopened(Cache, "camp/m", Params, 2, 2);
  EXPECT_TRUE(Reopened.loadStatus().ok());
  EXPECT_EQ(Reopened.entries(), 2u);
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(Reopened.lookup(0, 0, Payload));
  ASSERT_TRUE(Reopened.lookup(0, 1, Payload));
  EXPECT_FALSE(Reopened.lookup(1, 0, Payload));

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

//===----------------------------------------------------------------------===//
// 3. Crash, then resume: bit-identical final checkpoint
//===----------------------------------------------------------------------===//

TEST(CrashJournalTest, CrashedCampaignResumesToBitIdenticalCheckpoint) {
  const std::filesystem::path CrashDir = freshTempDir("resume-crashed");
  const std::filesystem::path CleanDir = freshTempDir("resume-clean");
  const std::vector<workloads::BenchmarkSpec> Suite = miniSuite();
  const serialize::Digest Params = harness::paramsDigest({"cfg-a", "cfg-b"});
  const harness::CellCodec<double> &Codec = harness::doubleCellCodec();
  const auto CellFn = [](harness::Cell &C) {
    return static_cast<double>(C.Rng.next() % 100000);
  };

  // The crashed campaign: three cells checkpointed, then the process dies
  // in the middle of the fourth cell's checkpoint rewrite.
  const int Exit = runForked([&] {
    auto Cache = std::make_shared<serialize::ArtifactCache>(CrashDir.string());
    harness::CampaignJournal Journal(Cache, "camp/m", Params, 2, 2);
    Journal.record(0, 0, Codec.Encode(cellValue(Suite[0], 0)));
    Journal.record(0, 1, Codec.Encode(cellValue(Suite[0], 1)));
    Journal.record(1, 0, Codec.Encode(cellValue(Suite[1], 0)));
    if (!Journal.lastCheckpointStatus().ok())
      return 3;
    const fault::Injector Inj(
        crashPlan(fault::Site::CrashMidJournalRewrite));
    Journal.setFaultInjector(&Inj);
    Journal.record(1, 1, Codec.Encode(cellValue(Suite[1], 1)));
    return 0;
  });
  ASSERT_EQ(Exit, exitcode::CrashChild);

  // Resume under --journal: only the lost cell recomputes.
  serialize::Digest Key;
  {
    harness::EngineOptions EngineOpts;
    EngineOpts.Jobs = 2;
    EngineOpts.CacheDir = CrashDir.string();
    EngineOpts.Journal = "camp";
    harness::ExperimentEngine Engine(miniOptions(), EngineOpts);
    harness::CampaignJournal *Journal =
        Engine.journalFor("m", Params, Suite.size(), 2);
    ASSERT_NE(Journal, nullptr);
    EXPECT_EQ(Journal->entries(), 3u);
    Key = Journal->key();
    const auto Matrix = Engine.runMatrix<double>(
        Suite, 2, CellFn, harness::CellNeeds{false, false, false}, Journal,
        &Codec);
    for (size_t B = 0; B < Suite.size(); ++B)
      for (size_t C = 0; C < 2u; ++C) {
        ASSERT_TRUE(Matrix[B][C].ok());
        EXPECT_DOUBLE_EQ(*Matrix[B][C], cellValue(Suite[B], C));
      }
    const harness::CampaignCounters Counters = Engine.campaign();
    EXPECT_EQ(Counters.CellsResumed, 3u);
    EXPECT_EQ(Counters.CellsComputed, 1u);
  }

  // An uninterrupted campaign in a fresh cache.
  {
    harness::EngineOptions EngineOpts;
    EngineOpts.Jobs = 2;
    EngineOpts.CacheDir = CleanDir.string();
    EngineOpts.Journal = "camp";
    harness::ExperimentEngine Engine(miniOptions(), EngineOpts);
    harness::CampaignJournal *Journal =
        Engine.journalFor("m", Params, Suite.size(), 2);
    ASSERT_NE(Journal, nullptr);
    Engine.runMatrix<double>(Suite, 2, CellFn,
                             harness::CellNeeds{false, false, false}, Journal,
                             &Codec);
    EXPECT_EQ(Engine.campaign().CellsComputed, 4u);
  }

  // The acceptance bar: the resumed campaign's final checkpoint blob is
  // bit-identical to the uninterrupted one's.
  serialize::ArtifactCache Crashed(CrashDir.string());
  serialize::ArtifactCache Clean(CleanDir.string());
  const auto A = Crashed.load(Key);
  const auto B = Clean.load(Key);
  ASSERT_TRUE(A.ok()) << A.status().toString();
  ASSERT_TRUE(B.ok()) << B.status().toString();
  EXPECT_EQ(*A, *B);

  std::error_code EC;
  std::filesystem::remove_all(CrashDir, EC);
  std::filesystem::remove_all(CleanDir, EC);
}

//===----------------------------------------------------------------------===//
// 4. SIGINT mid-campaign: exit 130 after a checkpoint flush, then resume
//===----------------------------------------------------------------------===//

TEST(SignalTest, SigintMidCampaignExits130FlushesCheckpointAndResumes) {
  const std::filesystem::path Dir = freshTempDir("sigint");
  const std::vector<workloads::BenchmarkSpec> Suite = miniSuite();
  const serialize::Digest Params = harness::paramsDigest({"cfg-a", "cfg-b"});
  const harness::CellCodec<double> &Codec = harness::doubleCellCodec();
  const auto CellFn = [](harness::Cell &C) {
    return static_cast<double>(C.Rng.next() % 100000);
  };

  // The interrupted campaign: a real SIGINT is raised after the second
  // computed cell (the deterministic-interrupt test hook), the drain sheds
  // the rest, and the driver epilogue must exit 130 after flushing.
  const int Exit = runForked([&] {
    ::setenv("DMP_TEST_RAISE_SIGINT_AFTER_CELLS", "2", 1);
    guard::installSignalHandlers();
    harness::EngineOptions EngineOpts;
    EngineOpts.Jobs = 1; // deterministic interrupt point
    EngineOpts.CacheDir = Dir.string();
    EngineOpts.Journal = "camp";
    harness::ExperimentEngine Engine(miniOptions(), EngineOpts);
    harness::CampaignJournal *Journal =
        Engine.journalFor("m", Params, Suite.size(), 2);
    if (!Journal)
      return 3;
    Engine.runMatrix<double>(Suite, 2, CellFn,
                             harness::CellNeeds{false, false, false}, Journal,
                             &Codec);
    if (Engine.campaign().CellsCancelled == 0)
      return 4; // the drain never happened
    return harness::finishDriver(Engine);
  });
  ASSERT_EQ(Exit, exitcode::Interrupted);

  // The flush made the completed cells durable...
  {
    auto Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
    harness::CampaignJournal Flushed(Cache, "camp/m", Params, Suite.size(),
                                     2);
    EXPECT_TRUE(Flushed.loadStatus().ok());
    EXPECT_EQ(Flushed.entries(), 2u);
  }

  // ...and the rerun resumes them, completing the matrix with exactly the
  // values an uninterrupted campaign computes.
  harness::EngineOptions EngineOpts;
  EngineOpts.Jobs = 2;
  EngineOpts.CacheDir = Dir.string();
  EngineOpts.Journal = "camp";
  harness::ExperimentEngine Engine(miniOptions(), EngineOpts);
  harness::CampaignJournal *Journal =
      Engine.journalFor("m", Params, Suite.size(), 2);
  ASSERT_NE(Journal, nullptr);
  const auto Matrix = Engine.runMatrix<double>(
      Suite, 2, CellFn, harness::CellNeeds{false, false, false}, Journal,
      &Codec);
  for (size_t B = 0; B < Suite.size(); ++B)
    for (size_t C = 0; C < 2u; ++C) {
      ASSERT_TRUE(Matrix[B][C].ok());
      EXPECT_DOUBLE_EQ(*Matrix[B][C], cellValue(Suite[B], C));
    }
  const harness::CampaignCounters Counters = Engine.campaign();
  EXPECT_EQ(Counters.CellsResumed, 2u);
  EXPECT_EQ(Counters.CellsComputed, 2u);
  EXPECT_EQ(Counters.CellsFailed, 0u);
  EXPECT_EQ(Journal->entries(), 4u);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

// The interrupt hook reads its count with the strict number rule: a
// malformed value leaves it unarmed, so the campaign runs to completion.
TEST(SignalTest, MalformedSigintHookStaysUnarmed) {
  const int Exit = runForked([] {
    ::setenv("DMP_TEST_RAISE_SIGINT_AFTER_CELLS", "2x", 1);
    guard::installSignalHandlers();
    harness::EngineOptions EngineOpts;
    EngineOpts.Jobs = 1;
    EngineOpts.UseCache = false;
    harness::ExperimentEngine Engine(miniOptions(), EngineOpts);
    const std::vector<workloads::BenchmarkSpec> Suite = miniSuite();
    Engine.runMatrix<double>(
        Suite, 2, [](harness::Cell &C) { return static_cast<double>(C.Config); },
        harness::CellNeeds{false, false, false});
    if (Engine.campaign().CellsComputed != 2 * Suite.size())
      return 4;
    return harness::finishDriver(Engine);
  });
  EXPECT_EQ(Exit, exitcode::Ok);
}

//===----------------------------------------------------------------------===//
// 5. Concurrent multi-process cache access
//===----------------------------------------------------------------------===//

TEST(ConcurrencyTest, TwoWritersAndAReaderNeverSeeTornBlobs) {
  const std::filesystem::path Dir = freshTempDir("mp");
  constexpr int NumKeys = 24;
  const auto KeyOf = [](int I) {
    return digestOf("mp-key-" + std::to_string(I));
  };
  const auto ValueOf = [](int I) {
    return payloadOf("mp-value-" + std::to_string(I), 4096);
  };

  const auto Writer = [&](uint64_t Salt) -> int {
    serialize::ArtifactCache Cache(Dir.string());
    for (int Round = 0; Round < 3; ++Round)
      for (int I = 0; I < NumKeys; ++I) {
        // Same key -> same bytes from both writers, so whoever renames
        // last wins harmlessly.
        if (!Cache.store(KeyOf(I), ValueOf(I)).ok())
          return 5;
        if ((I + static_cast<int>(Salt)) % 7 == 0)
          Cache.sweepNow(); // maintenance racing the other process
      }
    return 0;
  };

  const pid_t WriterA = ::fork();
  if (WriterA == 0)
    ::_exit(Writer(0));
  ASSERT_GT(WriterA, 0);
  const pid_t WriterB = ::fork();
  if (WriterB == 0)
    ::_exit(Writer(3));
  ASSERT_GT(WriterB, 0);

  // The reader hammers the cache while both writers run: every load is a
  // clean hit or a clean miss — Corrupt would mean a torn blob escaped the
  // temp-file + rename protocol.
  serialize::ArtifactCache Reader(Dir.string());
  uint64_t Hits = 0, MissesSeen = 0;
  bool WritersDone = false;
  while (!WritersDone) {
    for (int I = 0; I < NumKeys; ++I) {
      const auto Loaded = Reader.load(KeyOf(I));
      if (Loaded.ok()) {
        ++Hits;
        ASSERT_EQ(*Loaded, ValueOf(I));
      } else {
        ASSERT_EQ(Loaded.status().code(), ErrorCode::NotFound)
            << Loaded.status().toString();
        ++MissesSeen;
      }
    }
    int WStatus = 0;
    if (::waitpid(WriterA, &WStatus, WNOHANG) == WriterA) {
      ASSERT_TRUE(WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0);
      ASSERT_EQ(::waitpid(WriterB, &WStatus, 0), WriterB);
      ASSERT_TRUE(WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0);
      WritersDone = true;
    }
  }

  // Settled state: every key present with exact bytes, and the reader's
  // counters add up.
  const uint64_t HitsBefore = Reader.hits();
  const uint64_t MissesBefore = Reader.misses();
  EXPECT_EQ(HitsBefore, Hits);
  EXPECT_EQ(MissesBefore, MissesSeen);
  for (int I = 0; I < NumKeys; ++I) {
    const auto Loaded = Reader.load(KeyOf(I));
    ASSERT_TRUE(Loaded.ok()) << Loaded.status().toString();
    EXPECT_EQ(*Loaded, ValueOf(I));
  }
  EXPECT_EQ(Reader.hits(), HitsBefore + NumKeys);
  // No blob was ever rejected, and maintenance under contention only ever
  // skips (counts), never corrupts.
  EXPECT_EQ(Reader.corruptDeletes(), 0u);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}
