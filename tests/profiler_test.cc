// Unit tests for the query profiler: nesting (self vs cumulative
// accounting), merge-by-name, Stop() idempotence, ProfileScope
// install/restore, and thread-local isolation.

#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace graphbench {
namespace obs {
namespace {

void SpinFor(uint64_t micros) {
  // Busy wait so elapsed time is attributed to the enclosing OpTimer even
  // on coarse clocks.
  uint64_t start = NowMicros();
  while (NowMicros() - start < micros) {
  }
}

TEST(ProfilerTest, RecordMergesByName) {
  QueryProfile p;
  p.Record("scan", 1, 10, 100, 100);
  p.Record("join", 1, 5, 50, 50);
  p.Record("scan", 2, 30, 200, 250);
  ASSERT_EQ(p.ops().size(), 2u);
  const OpStats* scan = p.Find("scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->invocations, 3u);
  EXPECT_EQ(scan->rows, 40u);
  EXPECT_EQ(scan->self_micros, 300u);
  EXPECT_EQ(scan->cumulative_micros, 350u);
  EXPECT_EQ(p.TotalSelfMicros(), 350u);
  // First-execution order is preserved.
  EXPECT_EQ(p.ops()[0].name, "scan");
  EXPECT_EQ(p.ops()[1].name, "join");
}

TEST(ProfilerTest, MergeAddsAllRows) {
  QueryProfile a, b;
  a.Record("scan", 1, 1, 10, 10);
  b.Record("scan", 1, 2, 20, 20);
  b.Record("sort", 1, 3, 30, 30);
  a.Merge(b);
  ASSERT_EQ(a.ops().size(), 2u);
  EXPECT_EQ(a.Find("scan")->self_micros, 30u);
  EXPECT_EQ(a.Find("sort")->rows, 3u);
}

TEST(ProfilerTest, OpTimerIsNoOpWithoutActiveProfile) {
  EXPECT_EQ(ActiveProfile(), nullptr);
  OpTimer op("orphan");
  op.AddRows(3);
  EXPECT_EQ(op.Stop(), 0u);  // must not crash, record anywhere or read a clock
}

TEST(ProfilerTest, NestedTimersPartitionSelfTime) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out";
  QueryProfile p;
  {
    ProfileScope scope(&p);
    OpTimer parent("parent");
    SpinFor(2000);
    {
      OpTimer child("child");
      SpinFor(2000);
      child.AddRows(7);
    }
    SpinFor(1000);
  }
  const OpStats* parent = p.Find("parent");
  const OpStats* child = p.Find("child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->rows, 7u);
  EXPECT_GE(child->cumulative_micros, 2000u);
  // The child's elapsed time is subtracted from the parent's self time, so
  // self + nested cumulative reconstructs the parent's cumulative exactly.
  EXPECT_EQ(parent->self_micros + child->cumulative_micros,
            parent->cumulative_micros);
  EXPECT_GE(parent->self_micros, 3000u);
  EXPECT_LT(parent->self_micros, parent->cumulative_micros);
}

TEST(ProfilerTest, StopIsIdempotent) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out";
  QueryProfile p;
  {
    ProfileScope scope(&p);
    OpTimer op("phase");
    op.AddRows(1);
    op.Stop();
    op.Stop();  // second Stop and the destructor must not double-record
  }
  const OpStats* phase = p.Find("phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->invocations, 1u);
  EXPECT_EQ(phase->rows, 1u);
}

TEST(ProfilerTest, SequentialStopsKeepSiblingsIndependent) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out";
  QueryProfile p;
  {
    ProfileScope scope(&p);
    OpTimer a("parse");
    SpinFor(1000);
    a.Stop();
    OpTimer b("plan");
    SpinFor(1000);
    b.Stop();
  }
  // Siblings: neither subtracts from the other.
  EXPECT_EQ(p.Find("parse")->self_micros,
            p.Find("parse")->cumulative_micros);
  EXPECT_EQ(p.Find("plan")->self_micros, p.Find("plan")->cumulative_micros);
  EXPECT_GE(p.Find("parse")->self_micros, 1000u);
}

// A stage started at the previous one's stop stamp begins there, not when
// it is constructed, so the two rows tile the interval between them.
TEST(ProfilerTest, ChainedTimerStartsWherePreviousStopped) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out";
  QueryProfile p;
  {
    ProfileScope scope(&p);
    OpTimer a("serialize");
    SpinFor(1000);
    const uint64_t stopped_at = a.Stop();
    EXPECT_NE(stopped_at, 0u);
    SpinFor(2000);  // bookkeeping between the stages
    OpTimer b("dispatch", stopped_at);
    b.Stop();
  }
  EXPECT_GE(p.Find("serialize")->cumulative_micros, 1000u);
  EXPECT_GE(p.Find("dispatch")->cumulative_micros, 2000u);
}

TEST(ProfilerTest, ProfileScopeInstallsAndRestores) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out";
  EXPECT_EQ(ActiveProfile(), nullptr);
  QueryProfile outer, inner;
  {
    ProfileScope a(&outer);
    EXPECT_EQ(ActiveProfile(), &outer);
    {
      ProfileScope b(&inner);
      EXPECT_EQ(ActiveProfile(), &inner);
      ProfileScope c(nullptr);  // disables capture without uninstalling
      EXPECT_EQ(ActiveProfile(), nullptr);
    }
    EXPECT_EQ(ActiveProfile(), &outer);
  }
  EXPECT_EQ(ActiveProfile(), nullptr);
}

TEST(ProfilerTest, InnerScopeDoesNotLeakIntoOuterTimer) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out";
  QueryProfile outer, inner;
  {
    ProfileScope a(&outer);
    OpTimer op("outer_op");
    {
      // A nested scope's timers belong to the nested profile and must not
      // be subtracted from outer_op's self time.
      ProfileScope b(&inner);
      OpTimer nested("inner_op");
      SpinFor(1000);
    }
  }
  ASSERT_NE(outer.Find("outer_op"), nullptr);
  ASSERT_NE(inner.Find("inner_op"), nullptr);
  EXPECT_EQ(outer.Find("outer_op")->self_micros,
            outer.Find("outer_op")->cumulative_micros);
}

TEST(ProfilerTest, ThreadLocalIsolation) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out";
  QueryProfile main_profile;
  ProfileScope scope(&main_profile);
  QueryProfile worker_profile;
  std::thread worker([&] {
    // A fresh thread starts with no active profile regardless of the
    // spawning thread's scope.
    EXPECT_EQ(ActiveProfile(), nullptr);
    {
      OpTimer ignored("ignored");
      ignored.AddRows(1);
    }
    ProfileScope worker_scope(&worker_profile);
    OpTimer op("worker_op");
    op.AddRows(2);
  });
  worker.join();
  EXPECT_TRUE(main_profile.empty());
  ASSERT_NE(worker_profile.Find("worker_op"), nullptr);
  EXPECT_EQ(worker_profile.Find("worker_op")->rows, 2u);
  EXPECT_EQ(worker_profile.Find("ignored"), nullptr);
}

TEST(ProfilerTest, ToStringContainsOperatorRows) {
  QueryProfile p;
  p.Record("Expand", 4, 120, 900, 1500);
  std::string rendered = p.ToString("test profile");
  EXPECT_NE(rendered.find("Expand"), std::string::npos);
  EXPECT_NE(rendered.find("120"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace graphbench
