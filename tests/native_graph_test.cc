#include "engines/native/native_graph.h"

#include <gtest/gtest.h>

#include "graph/value_codec.h"
#include "storage/os_file.h"

namespace graphbench {
namespace {

NativeGraphOptions NoCheckpoint() {
  NativeGraphOptions o;
  o.checkpoint_interval_writes = 0;
  return o;
}

// The adjacency Neighbors appends for `v`, into a fresh buffer.
std::vector<Neighbor> Adjacency(const NativeGraph& g, VertexId v,
                                std::string_view label, Direction dir) {
  std::vector<Neighbor> out;
  Status s = g.Neighbors(v, label, dir, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(NativeGraphTest, AddAndGetVertex) {
  NativeGraph g(NoCheckpoint());
  auto v = g.AddVertex("Person", {{"id", Value(42)}, {"name", Value("Ada")}});
  ASSERT_TRUE(v.ok());
  std::string label;
  PropertyMap props;
  ASSERT_TRUE(g.GetVertex(*v, &label, &props).ok());
  EXPECT_EQ(label, "Person");
  EXPECT_EQ(props.Get("name").as_string(), "Ada");
  EXPECT_TRUE(g.GetVertex(999, nullptr, nullptr).IsNotFound());
}

TEST(NativeGraphTest, EdgesUpdateBothAdjacencyLists) {
  NativeGraph g(NoCheckpoint());
  VertexId a = *g.AddVertex("Person", {});
  VertexId b = *g.AddVertex("Person", {});
  auto e = g.AddEdge("knows", a, b, {{"since", Value(2017)}});
  ASSERT_TRUE(e.ok());

  std::vector<Neighbor> out = Adjacency(g, a, "knows", Direction::kOut);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex, b);

  std::vector<Neighbor> in = Adjacency(g, b, "knows", Direction::kIn);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].vertex, a);

  EXPECT_EQ(Adjacency(g, b, "knows", Direction::kBoth).size(), 1u);

  std::string label;
  VertexId src, dst;
  PropertyMap props;
  ASSERT_TRUE(g.GetEdge(*e, &label, &src, &dst, &props).ok());
  EXPECT_EQ(label, "knows");
  EXPECT_EQ(src, a);
  EXPECT_EQ(dst, b);
  EXPECT_EQ(props.Get("since").as_int(), 2017);
}

TEST(NativeGraphTest, NeighborsFilterByLabel) {
  NativeGraph g(NoCheckpoint());
  VertexId a = *g.AddVertex("Person", {});
  VertexId b = *g.AddVertex("Person", {});
  VertexId post = *g.AddVertex("Post", {});
  ASSERT_TRUE(g.AddEdge("knows", a, b, {}).ok());
  ASSERT_TRUE(g.AddEdge("likes", a, post, {}).ok());
  EXPECT_EQ(Adjacency(g, a, "knows", Direction::kOut).size(), 1u);
  EXPECT_EQ(Adjacency(g, a, "likes", Direction::kOut).size(), 1u);
  EXPECT_EQ(Adjacency(g, a, "", Direction::kOut).size(), 2u);
  EXPECT_EQ(Adjacency(g, a, "unseen", Direction::kOut).size(), 0u);
}

TEST(NativeGraphTest, NeighborsAppendsToTheCallersBuffer) {
  NativeGraph g(NoCheckpoint());
  VertexId a = *g.AddVertex("Person", {});
  VertexId b = *g.AddVertex("Person", {});
  VertexId c = *g.AddVertex("Person", {});
  ASSERT_TRUE(g.AddEdge("knows", a, b, {}).ok());
  ASSERT_TRUE(g.AddEdge("knows", c, a, {}).ok());
  std::vector<Neighbor> buffer;
  ASSERT_TRUE(g.Neighbors(a, "knows", Direction::kOut, &buffer).ok());
  ASSERT_TRUE(g.Neighbors(a, "knows", Direction::kIn, &buffer).ok());
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer[0].vertex, b);
  EXPECT_EQ(buffer[1].vertex, c);
  EXPECT_TRUE(g.Neighbors(99, "knows", Direction::kOut, &buffer).IsNotFound());
  EXPECT_EQ(buffer.size(), 2u);
}

TEST(NativeGraphTest, LabelIdsMatchVertexLabels) {
  NativeGraph g(NoCheckpoint());
  VertexId a = *g.AddVertex("Person", {});
  VertexId post = *g.AddVertex("Post", {});
  const int person = g.LabelId("Person");
  ASSERT_GE(person, 0);
  EXPECT_NE(g.LabelId("Post"), person);
  EXPECT_EQ(g.LabelId("Unseen"), -1);
  EXPECT_EQ(*g.VertexLabelId(a), uint32_t(person));
  EXPECT_EQ(*g.VertexLabelId(post), uint32_t(g.LabelId("Post")));
  EXPECT_TRUE(g.VertexLabelId(99).status().IsNotFound());
}

TEST(NativeGraphTest, AddEdgeValidatesEndpoints) {
  NativeGraph g(NoCheckpoint());
  VertexId a = *g.AddVertex("Person", {});
  EXPECT_TRUE(g.AddEdge("knows", a, 99, {}).status().IsInvalidArgument());
}

TEST(NativeGraphTest, UniqueIndexLookupAndViolation) {
  NativeGraph g(NoCheckpoint());
  ASSERT_TRUE(g.CreateUniqueIndex("Person", "id").ok());
  VertexId a = *g.AddVertex("Person", {{"id", Value(7)}});
  auto found = g.FindVertex("Person", "id", Value(7));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, a);
  EXPECT_TRUE(g.FindVertex("Person", "id", Value(8)).status().IsNotFound());
  // Duplicate id rejected by the index.
  EXPECT_TRUE(
      g.AddVertex("Person", {{"id", Value(7)}}).status().IsAlreadyExists());
}

TEST(NativeGraphTest, IndexBackfillsExistingVertices) {
  NativeGraph g(NoCheckpoint());
  VertexId a = *g.AddVertex("Person", {{"id", Value(5)}});
  ASSERT_TRUE(g.CreateUniqueIndex("Person", "id").ok());
  auto found = g.FindVertex("Person", "id", Value(5));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, a);
}

TEST(NativeGraphTest, FindVertexWithoutIndexFallsBackToScan) {
  NativeGraph g(NoCheckpoint());
  VertexId a = *g.AddVertex("Person", {{"email", Value("x@y")}});
  auto found = g.FindVertex("Person", "email", Value("x@y"));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, a);
}

TEST(NativeGraphTest, VerticesByLabel) {
  NativeGraph g(NoCheckpoint());
  ASSERT_TRUE(g.AddVertex("Person", {}).ok());
  ASSERT_TRUE(g.AddVertex("Post", {}).ok());
  ASSERT_TRUE(g.AddVertex("Person", {}).ok());
  EXPECT_EQ(g.VerticesByLabel("Person").size(), 2u);
  EXPECT_EQ(g.VerticesByLabel("").size(), 3u);
  EXPECT_EQ(g.VertexCount(), 3u);
}

TEST(NativeGraphTest, SetVertexProperty) {
  NativeGraph g(NoCheckpoint());
  VertexId a = *g.AddVertex("Person", {});
  ASSERT_TRUE(g.SetVertexProperty(a, "age", Value(30)).ok());
  auto v = g.VertexProperty(a, "age");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_int(), 30);
  EXPECT_TRUE(g.VertexProperty(a, "missing")->is_null());
}

TEST(NativeGraphTest, ShortestPathOnChainAndTriangle) {
  NativeGraph g(NoCheckpoint());
  std::vector<VertexId> v;
  for (int i = 0; i < 6; ++i) v.push_back(*g.AddVertex("Person", {}));
  // Chain 0-1-2-3-4, plus 5 disconnected.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(g.AddEdge("knows", v[size_t(i)], v[size_t(i) + 1], {}).ok());
  }
  EXPECT_EQ(*g.ShortestPathLength(v[0], v[4], "knows"), 4);
  EXPECT_EQ(*g.ShortestPathLength(v[4], v[0], "knows"), 4);  // undirected
  EXPECT_EQ(*g.ShortestPathLength(v[0], v[0], "knows"), 0);
  EXPECT_EQ(*g.ShortestPathLength(v[0], v[5], "knows"), -1);
  // Shortcut edge shortens the path.
  ASSERT_TRUE(g.AddEdge("knows", v[0], v[3], {}).ok());
  EXPECT_EQ(*g.ShortestPathLength(v[0], v[4], "knows"), 2);
}

TEST(NativeGraphTest, CheckpointTriggersAfterIntervalWrites) {
  NativeGraphOptions opts;
  opts.checkpoint_interval_writes = 100;
  opts.checkpoint_micros_per_dirty_write = 1;
  opts.checkpoint_max_pause_micros = 1000;
  NativeGraph g(opts);
  for (int i = 0; i < 250; ++i) ASSERT_TRUE(g.AddVertex("P", {}).ok());
  EXPECT_EQ(g.checkpoints_taken(), 2u);
}

TEST(NativeGraphTest, SnapshotRestoreRoundTrip) {
  NativeGraph g(NoCheckpoint());
  ASSERT_TRUE(g.CreateUniqueIndex("Person", "id").ok());
  VertexId a = *g.AddVertex("Person", {{"id", Value(1)},
                                       {"firstName", Value("Ada")}});
  VertexId b = *g.AddVertex("Person", {{"id", Value(2)}});
  VertexId post = *g.AddVertex("Post", {{"id", Value(10)}});
  ASSERT_TRUE(g.AddEdge("knows", a, b, {{"since", Value(2017)}}).ok());
  ASSERT_TRUE(g.AddEdge("likes", b, post, {}).ok());

  std::string snapshot;
  ASSERT_TRUE(g.SnapshotTo(&snapshot).ok());
  EXPECT_FALSE(snapshot.empty());

  NativeGraph restored(NoCheckpoint());
  ASSERT_TRUE(restored.RestoreFrom(snapshot).ok());
  EXPECT_EQ(restored.VertexCount(), 3u);
  EXPECT_EQ(restored.EdgeCount(), 2u);
  auto name = restored.VertexProperty(a, "firstName");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->as_string(), "Ada");
  std::vector<Neighbor> nb = Adjacency(restored, a, "knows", Direction::kBoth);
  ASSERT_EQ(nb.size(), 1u);
  EXPECT_EQ(nb[0].vertex, b);
  // Restored stores can rebuild indexes and find by property.
  ASSERT_TRUE(restored.CreateUniqueIndex("Person", "id").ok());
  auto found = restored.FindVertex("Person", "id", Value(2));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, b);
}

TEST(NativeGraphTest, RestoreRejectsNonEmptyStoreAndGarbage) {
  NativeGraph g(NoCheckpoint());
  ASSERT_TRUE(g.AddVertex("P", {}).ok());
  EXPECT_TRUE(g.RestoreFrom("").IsInvalidArgument());

  NativeGraph fresh(NoCheckpoint());
  EXPECT_TRUE(fresh.RestoreFrom("garbage-bytes").IsCorruption());
}

TEST(NativeGraphTest, CheckpointSerializesDirtyRecords) {
  NativeGraphOptions opts;
  opts.checkpoint_interval_writes = 50;
  opts.checkpoint_micros_per_dirty_write = 0;
  NativeGraph g(opts);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(g.AddVertex("P", {{"id", Value(i)}}).ok());
  }
  EXPECT_EQ(g.checkpoints_taken(), 2u);
  // The running checkpoint buffer matches a full snapshot prefix: restore
  // from a fresh full snapshot still works after incremental checkpoints.
  std::string snapshot;
  ASSERT_TRUE(g.SnapshotTo(&snapshot).ok());
  NativeGraph restored(NoCheckpoint());
  ASSERT_TRUE(restored.RestoreFrom(snapshot).ok());
  EXPECT_EQ(restored.VertexCount(), 120u);
}

// Durable options writing through `fs` with no periodic checkpoint.
NativeGraphOptions DurableOn(storage::FileSystem* fs) {
  NativeGraphOptions o = NoCheckpoint();
  o.durability.enabled = true;
  o.durability.dir = "db";
  o.durability.fs = fs;
  return o;
}

TEST(NativeGraphTest, FailedJournalAppendPublishesNothing) {
  storage::MemFileSystem base;
  storage::FaultOptions fault;
  fault.fail_after_write_bytes = 24;  // the header fits, no record does
  storage::FaultFileSystem fs(&base, fault, "neo4j.wal");
  NativeGraph g(DurableOn(&fs));
  EXPECT_FALSE(g.AddVertex("Person", {{"id", Value(1)}}).ok());
  EXPECT_EQ(g.VertexCount(), 0u);
}

TEST(NativeGraphTest, FailedCommitSyncPublishesNothing) {
  storage::MemFileSystem base;
  storage::FaultOptions fault;
  fault.fail_after_fsyncs = 2;  // the header sync passes, the commit fails
  storage::FaultFileSystem fs(&base, fault, "neo4j.wal");
  NativeGraphOptions opts = DurableOn(&fs);
  opts.durability.fsync_on_commit = true;
  NativeGraph g(opts);
  EXPECT_FALSE(g.AddVertex("Person", {}).ok());
  EXPECT_EQ(g.VertexCount(), 0u);
}

TEST(NativeGraphTest, FailedOpenIsReturnedByEveryWrite) {
  storage::MemFileSystem base;
  storage::FaultOptions fault;
  fault.fail_after_fsyncs = 1;  // the journal header never syncs
  storage::FaultFileSystem fs(&base, fault, "neo4j.wal");
  NativeGraph g(DurableOn(&fs));
  EXPECT_FALSE(g.AddVertex("Person", {}).ok());
  EXPECT_FALSE(g.AddVertex("Person", {}).ok());
  EXPECT_EQ(g.VertexCount(), 0u);
  // The same store without the fault accepts writes.
  NativeGraph healthy(DurableOn(&base));
  VertexId a = *healthy.AddVertex("Person", {});
  VertexId b = *healthy.AddVertex("Person", {});
  EXPECT_TRUE(healthy.AddEdge("knows", a, b, {}).ok());
  EXPECT_TRUE(healthy.SetVertexProperty(a, "id", Value(1)).ok());
  EXPECT_TRUE(healthy.RemoveEdge("knows", a, b).ok());
}

TEST(NativeGraphTest, FailedCheckpointIsReturnedButTheWriteStands) {
  storage::MemFileSystem base;
  storage::FaultOptions fault;
  fault.fail_after_fsyncs = 1;  // the store file never syncs
  storage::FaultFileSystem fs(&base, fault, "neo4j.db");
  NativeGraphOptions opts = DurableOn(&fs);
  opts.checkpoint_interval_writes = 3;
  NativeGraph g(opts);
  ASSERT_TRUE(g.AddVertex("P", {}).ok());
  ASSERT_TRUE(g.AddVertex("P", {}).ok());
  EXPECT_FALSE(g.AddVertex("P", {}).ok());  // triggers the checkpoint
  EXPECT_EQ(g.VertexCount(), 3u);           // commit-unknown, not undone
  EXPECT_EQ(g.checkpoints_taken(), 0u);
}

TEST(NativeGraphTest, DurableCheckpointAppendsEachRecordOnce) {
  storage::MemFileSystem fs;
  NativeGraphOptions opts = DurableOn(&fs);
  opts.checkpoint_interval_writes = 4;
  NativeGraph g(opts);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(g.AddVertex("P", {{"id", Value(i)}}).ok());
  }
  EXPECT_EQ(g.checkpoints_taken(), 2u);
  // The store file holds exactly the records, and restores the graph.
  std::string snapshot;
  ASSERT_TRUE(g.SnapshotTo(&snapshot).ok());
  EXPECT_EQ(fs.Materialize("db/neo4j.db"), snapshot);
}

TEST(ValueCodecTest, ValueRoundTrip) {
  for (const Value& v :
       {Value(), Value(true), Value(int64_t{-12345}), Value(int64_t{1} << 60),
        Value(3.14159), Value("hello world"), Value("")}) {
    std::string buf;
    valuecodec::EncodeValue(&buf, v);
    std::string_view view(buf);
    Value decoded;
    ASSERT_TRUE(valuecodec::DecodeValue(&view, &decoded));
    EXPECT_EQ(decoded, v) << v.ToString();
    EXPECT_TRUE(view.empty());
  }
}

TEST(ValueCodecTest, PropertyMapRoundTrip) {
  PropertyMap props{{"id", Value(77)},
                    {"name", Value("Bob")},
                    {"score", Value(0.5)},
                    {"active", Value(true)}};
  std::string buf;
  valuecodec::EncodePropertyMap(&buf, props);
  std::string_view view(buf);
  PropertyMap decoded;
  ASSERT_TRUE(valuecodec::DecodePropertyMap(&view, &decoded));
  EXPECT_EQ(decoded.size(), 4u);
  EXPECT_EQ(decoded.Get("id").as_int(), 77);
  EXPECT_EQ(decoded.Get("name").as_string(), "Bob");
  EXPECT_EQ(decoded.Get("active").as_bool(), true);
}

TEST(ValueCodecTest, DecodeRejectsTruncation) {
  std::string buf;
  valuecodec::EncodeValue(&buf, Value("long string payload"));
  std::string_view truncated(buf.data(), buf.size() - 5);
  Value v;
  EXPECT_FALSE(valuecodec::DecodeValue(&truncated, &v));
}

}  // namespace
}  // namespace graphbench
