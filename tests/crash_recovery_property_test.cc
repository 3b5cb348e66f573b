// Kill-and-replay property test for the durable storage substrate
// (the --durable acceptance gate). Each trial runs a random op stream
// against PagedBTreeKv, or PagedTable (the durable Postgres and Virtuoso
// store), over the crash-simulating MemFileSystem —
// optionally through a FaultFileSystem injecting scheduled fsync/write
// failures — then "kills the machine" (MemFileSystem::Crash resolves
// every unsynced write as kept, torn at a 512-byte sector, or dropped),
// reopens, and replays the WAL.
//
// The recovered store must equal the in-memory oracle after some PREFIX
// of the logged op history:
//   - no lost acks      — every op acknowledged under the mode's
//                         durability floor is in the prefix,
//   - no phantom writes — nothing outside the history appears, and no op
//                         applies half (one op = one WAL record),
//   - torn tail discarded — a partially persisted tail record never
//                         resurfaces as data.
//
// Depth: a handful of trials per mode in ctest (smoke); the CI sanitize
// job sweeps the full fault schedule with GRAPHBENCH_CRASH_DEPTH=full.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "kv/paged_btree_kv.h"
#include "storage/os_file.h"
#include "storage/paged_table.h"
#include "util/random.h"

namespace graphbench {
namespace {

using storage::FaultFileSystem;
using storage::FaultOptions;
using storage::MemFileSystem;
using storage::PagerOptions;

bool FullDepth() {
  const char* depth = std::getenv("GRAPHBENCH_CRASH_DEPTH");
  return depth != nullptr && std::string(depth) == "full";
}

struct Op {
  std::string key;
  std::optional<std::string> value;  // nullopt = delete
};

using State = std::map<std::string, std::string>;

void ApplyOp(State* state, const Op& op) {
  if (op.value.has_value()) {
    (*state)[op.key] = *op.value;
  } else {
    state->erase(op.key);
  }
}

State DumpStore(PagedBTreeKv* kv) {
  State out;
  auto it = kv->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out[std::string(it->key())] = std::string(it->value());
  }
  return out;
}

std::string DescribeState(const State& s) {
  std::string out;
  for (const auto& [k, v] : s) {
    out += k + "=" + v.substr(0, 8) + " ";
    if (out.size() > 400) return out + "...";
  }
  return out;
}

struct TrialConfig {
  uint64_t seed = 0;
  bool fsync_on_commit = true;
  int ops = 150;
  int checkpoint_every = 0;  // 0 = never
  // Upper bound on ordinary (non-overflow) value sizes; the short-write
  // schedule uses values wider than a sector so torn frames persist
  // meaningful prefixes.
  int value_max = 40;
  // When > 0, every put's value length is uniform in [value_min,
  // value_max] instead (and no 5000-byte value is drawn).
  int value_min = 0;
  // Keys are drawn from `key_space` distinct keys, or, with
  // `ascending_keys`, each put takes the next key in order and each delete
  // an earlier one.
  int key_space = 40;
  bool ascending_keys = false;
  // Appended to every key, so wide keys split interior nodes too.
  int key_padding = 0;
  // Fault schedule (<= 0 disarms each) and which file it targets
  // (".wal" or ".db").
  int64_t fail_after_fsyncs = -1;
  int64_t short_write_at = -1;
  std::string fault_filter;
};

// The file system a trial writes through: `base`, or a FaultFileSystem
// over it (kept in `faulty`) when the config schedules a fault.
storage::FileSystem* TrialFileSystem(const TrialConfig& config,
                                     MemFileSystem* base,
                                     std::unique_ptr<FaultFileSystem>* faulty) {
  if (config.fail_after_fsyncs <= 0 && config.short_write_at <= 0) {
    return base;
  }
  FaultOptions fault;
  fault.fail_after_fsyncs = config.fail_after_fsyncs;
  fault.short_write_at = config.short_write_at;
  *faulty = std::make_unique<FaultFileSystem>(base, fault, config.fault_filter);
  return faulty->get();
}

// Runs one kill-and-replay trial; all properties are asserted inside.
void RunTrial(const TrialConfig& config) {
  SCOPED_TRACE("seed=" + std::to_string(config.seed) +
               " fsync_on_commit=" + std::to_string(config.fsync_on_commit) +
               " ckpt_every=" + std::to_string(config.checkpoint_every) +
               " fail_after_fsyncs=" +
               std::to_string(config.fail_after_fsyncs) + " short_write_at=" +
               std::to_string(config.short_write_at) + " filter=" +
               config.fault_filter + " ascending=" +
               std::to_string(config.ascending_keys));
  Rng rng(config.seed * 2654435761u + 13);

  MemFileSystem base;
  std::unique_ptr<FaultFileSystem> faulty;
  storage::FileSystem* fs = TrialFileSystem(config, &base, &faulty);

  PagerOptions pager_options;
  pager_options.cache_pages = 8;  // tiny pool: constant dirty evictions
  pager_options.fsync_on_commit = config.fsync_on_commit;

  // The logged op history and the index below which ops are guaranteed
  // durable (the "no lost acks" floor).
  std::vector<Op> history;
  size_t durable_floor = 0;

  {
    auto opened = PagedBTreeKv::Open(fs, "kv.db", "kv.wal", pager_options);
    if (!opened.ok()) return;  // fault fired during create: nothing acked
    auto& kv = *opened;
    uint64_t next_key = 0;  // ascending_keys: the next put's key

    for (int i = 0; i < config.ops; ++i) {
      Op op;
      uint64_t key = config.ascending_keys
                         ? next_key
                         : rng.Uniform(uint64_t(config.key_space));
      uint64_t kind = rng.Uniform(10);
      if (config.ascending_keys) {
        if (kind < 7) {
          ++next_key;
        } else {
          key = rng.Uniform(next_key + 1);
        }
        char padded[16];
        std::snprintf(padded, sizeof(padded), "key%06llu",
                      static_cast<unsigned long long>(key));
        op.key = padded;
      } else {
        op.key = "key" + std::to_string(key);
      }
      op.key.append(size_t(config.key_padding), '.');
      if (kind < 7) {
        // Mostly puts; occasionally a multi-page overflow value.
        size_t len;
        if (config.value_min > 0) {
          len = size_t(config.value_min) +
                rng.Uniform(uint64_t(config.value_max - config.value_min) + 1);
        } else {
          len = rng.Uniform(20) == 0
                    ? 5000
                    : rng.Uniform(uint64_t(config.value_max)) + 1;
        }
        op.value = std::string(len, char('a' + rng.Uniform(26)));
      }
      // The WAL append offset advances exactly when an op's record
      // reached the log — the discriminator between the two failure
      // modes below. (A read-back would not do: with the WAL fsync
      // dead, Get itself can fail on a dirty eviction.)
      uint64_t wal_bytes = kv->pager()->wal()->size_bytes();
      Status s = op.value.has_value() ? kv->Put(op.key, *op.value)
                                      : kv->Delete(op.key);
      if (s.IsNotFound()) continue;  // delete of a missing key: no-op
      if (!s.ok()) {
        // A failed op is either rolled back (WAL append failed or the
        // pager is degraded: state unchanged, no record in the log) or
        // commit-unknown (record appended but the fsync failed: the
        // in-memory state stands and the record may replay). The log is
        // exactly the sequence of applied ops: commit-unknown ops stay
        // in the history as maybe-durable entries, rolled-back ops
        // never happened. The workload keeps going either way — later
        // acked commits must survive regardless of earlier failures.
        bool record_logged = kv->pager()->wal()->size_bytes() != wal_bytes;
        if (record_logged) history.push_back(std::move(op));
        continue;
      }
      history.push_back(std::move(op));
      if (config.fsync_on_commit) durable_floor = history.size();
      if (config.checkpoint_every > 0 &&
          (i + 1) % config.checkpoint_every == 0) {
        // A failed checkpoint may degrade the pager (header-publish
        // ambiguity); keep issuing ops — they must then be refused and
        // rolled back, never acked into a log recovery cannot replay.
        if (kv->Checkpoint().ok()) durable_floor = history.size();
      }
    }
  }

  base.Crash(&rng);

  // Reopen on the bare (fault-free) file system: recovery itself must
  // succeed on whatever the crash left behind.
  auto reopened =
      PagedBTreeKv::Open(&base, "kv.db", "kv.wal", pager_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  State recovered = DumpStore(reopened->get());

  // The recovered state must equal the oracle after some prefix of the
  // history, no shorter than the durable floor.
  State candidate;
  size_t k = 0;
  for (; k <= history.size(); ++k) {
    if (k >= durable_floor && candidate == recovered) break;
    if (k < history.size()) ApplyOp(&candidate, history[k]);
  }
  std::string history_dump;
  for (size_t i = 0; i < history.size(); ++i) {
    history_dump += (i < durable_floor ? " [A]" : " [M]");
    history_dump += history[i].key + "=" +
                    (history[i].value.has_value()
                         ? history[i].value->substr(0, 4)
                         : std::string("<del>"));
    if (history_dump.size() > 2000) {
      history_dump += "...";
      break;
    }
  }
  ASSERT_LE(k, history.size())
      << "recovered state matches no acknowledged prefix\n  durable_floor="
      << durable_floor << " history=" << history.size()
      << "\n  recovered: " << DescribeState(recovered)
      << "\n  full oracle: " << DescribeState(candidate)
      << "\n  history:" << history_dump;

  // And the store must keep working after recovery.
  ASSERT_TRUE((*reopened)->Put("post-recovery", "ok").ok());
  std::string v;
  ASSERT_TRUE((*reopened)->Get("post-recovery", &v).ok());
  EXPECT_EQ(v, "ok");
}

TEST(CrashRecoveryPropertyTest, FsyncPerCommitNeverLosesAcks) {
  int trials = FullDepth() ? 60 : 8;
  for (int t = 0; t < trials; ++t) {
    TrialConfig config;
    config.seed = uint64_t(t);
    config.fsync_on_commit = true;
    RunTrial(config);
  }
}

TEST(CrashRecoveryPropertyTest, GroupDurabilityKeepsCheckpointedPrefix) {
  int trials = FullDepth() ? 60 : 8;
  for (int t = 0; t < trials; ++t) {
    TrialConfig config;
    config.seed = uint64_t(1000 + t);
    config.fsync_on_commit = false;
    config.checkpoint_every = 23;
    RunTrial(config);
  }
}

TEST(CrashRecoveryPropertyTest, SurvivesScheduledWalFsyncFailures) {
  int trials = FullDepth() ? 40 : 6;
  std::vector<int64_t> schedule =
      FullDepth() ? std::vector<int64_t>{1, 2, 3, 5, 8, 13, 21}
                  : std::vector<int64_t>{2, 5};
  for (int64_t fail_after : schedule) {
    for (int t = 0; t < trials; ++t) {
      TrialConfig config;
      config.seed = uint64_t(2000 + t) * 31 + uint64_t(fail_after);
      config.fsync_on_commit = true;
      config.fail_after_fsyncs = fail_after;
      config.fault_filter = ".wal";
      RunTrial(config);
    }
  }
}

TEST(CrashRecoveryPropertyTest, SurvivesScheduledDbFsyncFailures) {
  int trials = FullDepth() ? 40 : 6;
  std::vector<int64_t> schedule = FullDepth()
                                      ? std::vector<int64_t>{1, 2, 3, 5, 8}
                                      : std::vector<int64_t>{1, 3};
  for (int64_t fail_after : schedule) {
    for (int t = 0; t < trials; ++t) {
      TrialConfig config;
      config.seed = uint64_t(3000 + t) * 17 + uint64_t(fail_after);
      config.fsync_on_commit = true;
      config.checkpoint_every = 19;  // checkpoints hit the db file
      config.fail_after_fsyncs = fail_after;
      config.fault_filter = ".db";
      RunTrial(config);
    }
  }
}

// A short write tears one WAL frame mid-run (the op is rolled back); all
// later acked commits must still be recoverable — the next record has to
// overwrite the partial frame, not splice itself after garbage that cuts
// the scan short.
TEST(CrashRecoveryPropertyTest, SurvivesWalShortWrites) {
  int trials = FullDepth() ? 40 : 6;
  std::vector<int64_t> schedule = FullDepth()
                                      ? std::vector<int64_t>{2, 3, 5, 9, 25}
                                      : std::vector<int64_t>{3, 9};
  for (int64_t write_at : schedule) {
    for (int t = 0; t < trials; ++t) {
      TrialConfig config;
      config.seed = uint64_t(4000 + t) * 29 + uint64_t(write_at);
      config.fsync_on_commit = true;
      // Values wider than a sector so the torn frame persists a prefix.
      config.value_max = 1200;
      config.short_write_at = write_at;  // write #1 is the header
      config.fault_filter = ".wal";
      RunTrial(config);
    }
  }
}

// Split-heavy streams: values straddling kMaxInlineValue (512 B) fill a
// leaf in a handful of puts, so slotted-page splits, root growth,
// compaction of overwritten records, overflow chains and evictions from
// the 8-page pool all land mid-flight when the machine dies; 240-byte
// keys make interior nodes split and the tree grow past two levels.
// Ascending keys always split the rightmost leaf; random keys split
// anywhere and overwrite, which compacts.
TEST(CrashRecoveryPropertyTest, SplitHeavyStreamsRecover) {
  int trials = FullDepth() ? 60 : 8;
  for (bool ascending : {true, false}) {
    for (int t = 0; t < trials; ++t) {
      TrialConfig config;
      config.seed = uint64_t(5000 + t) * 7 + (ascending ? 1 : 0);
      config.fsync_on_commit = t % 2 == 0;
      config.checkpoint_every = t % 2 == 0 ? 0 : 41;
      config.ops = 300;
      config.value_min = 448;
      config.value_max = 576;
      config.key_space = 120;
      config.ascending_keys = ascending;
      config.key_padding = 240;
      RunTrial(config);
    }
  }
}

// --- PagedTable ------------------------------------------------------------
//
// The same kill-and-replay checks for the slotted table: random inserts,
// updates and deletes of rows inline in their 128-byte slot, packed into
// shared row pages, or spilled to overflow chains longer than a page, then
// a crash, a reopen and PagedTable::Attach. Each
// logged op is recorded with the row id it wrote, so the oracle needs no
// knowledge of how the table assigns ids.

struct TableOp {
  RowId id = 0;
  std::optional<std::string> value;  // nullopt = delete
};

using TableState = std::map<RowId, std::string>;

TableSchema TableTrialSchema() {
  return TableSchema(
      "t", {{"id", Value::Type::kInt}, {"v", Value::Type::kString}});
}

void RunTableTrial(const TrialConfig& config) {
  SCOPED_TRACE("table seed=" + std::to_string(config.seed) +
               " fsync_on_commit=" + std::to_string(config.fsync_on_commit) +
               " ckpt_every=" + std::to_string(config.checkpoint_every) +
               " fail_after_fsyncs=" +
               std::to_string(config.fail_after_fsyncs) + " filter=" +
               config.fault_filter);
  Rng rng(config.seed * 2654435761u + 29);

  MemFileSystem base;
  std::unique_ptr<FaultFileSystem> faulty;
  storage::FileSystem* fs = TrialFileSystem(config, &base, &faulty);

  PagerOptions pager_options;
  pager_options.cache_pages = 8;  // tiny pool: constant dirty evictions
  pager_options.fsync_on_commit = config.fsync_on_commit;

  std::vector<TableOp> history;
  size_t durable_floor = 0;
  uint64_t meta_page = 0;

  {
    auto pager = storage::Pager::Open(fs, "t.db", "t.wal", pager_options);
    if (!pager.ok()) return;  // fault fired during create: nothing acked
    auto table = PagedTable::Create(pager->get(), TableTrialSchema());
    if (!table.ok()) return;
    // The table must exist after the crash for Attach to find it.
    if (!(*pager)->Checkpoint().ok()) return;
    meta_page = (*table)->meta_page();
    storage::Wal* wal = (*pager)->wal();

    RowId next_id = 0;  // ids below this may hold rows
    for (int i = 0; i < config.ops; ++i) {
      uint64_t kind = rng.Uniform(10);
      TableOp op;
      if (kind >= 5) {
        // Inline, packed (a row page holds several), or a chain.
        uint64_t shape = rng.Uniform(16);
        size_t len = shape == 0   ? 4100 + rng.Uniform(3000)
                     : shape < 4 ? 125 + rng.Uniform(900)
                                 : 1 + rng.Uniform(100);
        op.value = std::string(len, char('a' + rng.Uniform(26)));
      }
      uint64_t wal_bytes = wal->size_bytes();
      Status s;
      if (kind >= 7 || next_id == 0) {
        if (!op.value.has_value()) continue;
        auto id = (*table)->Insert(
            Row{Value(int64_t(next_id)), Value(*op.value)});
        // A failed insert may still have been logged (commit-unknown);
        // it then wrote the id the next insert would have taken.
        op.id = id.ok() ? *id : next_id;
        s = id.status();
      } else {
        op.id = rng.Uniform(next_id);
        s = op.value.has_value()
                ? (*table)->Update(op.id,
                                   Row{Value(int64_t(op.id)), Value(*op.value)})
                : (*table)->Delete(op.id);
        if (s.IsNotFound()) continue;  // a deleted row: no-op
      }
      if (!s.ok()) {
        // Rolled back, or commit-unknown (see RunTrial): only a logged
        // record can replay.
        if (wal->size_bytes() != wal_bytes) history.push_back(op);
      } else {
        history.push_back(op);
        if (config.fsync_on_commit) durable_floor = history.size();
      }
      if (wal->size_bytes() != wal_bytes && op.id >= next_id) {
        next_id = op.id + 1;
      }
      if (config.checkpoint_every > 0 &&
          (i + 1) % config.checkpoint_every == 0 &&
          (*pager)->Checkpoint().ok()) {
        durable_floor = history.size();
      }
    }
  }

  base.Crash(&rng);

  auto pager = storage::Pager::Open(&base, "t.db", "t.wal", pager_options);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  auto table = PagedTable::Attach(pager->get(), meta_page, TableTrialSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  TableState recovered;
  std::vector<RowId> ids;
  ASSERT_TRUE((*table)->LiveRowIds(&ids).ok());
  for (RowId id : ids) {
    Row row;
    ASSERT_TRUE((*table)->Get(id, &row).ok());
    recovered[id] = row[1].as_string();
  }

  TableState candidate;
  size_t k = 0;
  for (; k <= history.size(); ++k) {
    if (k >= durable_floor && candidate == recovered) break;
    if (k < history.size()) {
      const TableOp& op = history[k];
      if (op.value.has_value()) {
        candidate[op.id] = *op.value;
      } else {
        candidate.erase(op.id);
      }
    }
  }
  ASSERT_LE(k, history.size())
      << "recovered rows match no acknowledged prefix: durable_floor="
      << durable_floor << " history=" << history.size()
      << " recovered rows=" << recovered.size() << [&] {
           std::string out = "\n  recovered:";
           for (const auto& [id, v] : recovered) {
             out += " " + std::to_string(id) + "=" + v.substr(0, 4);
           }
           out += "\n  history:";
           for (size_t i = 0; i < history.size(); ++i) {
             out += (i < durable_floor ? " [A]" : " [M]") +
                    std::to_string(history[i].id) + "=" +
                    (history[i].value ? history[i].value->substr(0, 4)
                                      : std::string("<del>"));
           }
           return out;
         }();
  EXPECT_EQ((*table)->row_count(), recovered.size());

  // And the table must keep working after recovery.
  auto id = (*table)->Insert(Row{Value(int64_t(-1)), Value("post-recovery")});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  Row row;
  ASSERT_TRUE((*table)->Get(*id, &row).ok());
  EXPECT_EQ(row[1].as_string(), "post-recovery");
}

TEST(CrashRecoveryPropertyTest, TableFsyncPerCommitNeverLosesAcks) {
  int trials = FullDepth() ? 60 : 8;
  for (int t = 0; t < trials; ++t) {
    TrialConfig config;
    config.seed = uint64_t(6000 + t);
    config.fsync_on_commit = true;
    RunTableTrial(config);
  }
}

TEST(CrashRecoveryPropertyTest, TableGroupDurabilityKeepsCheckpointedPrefix) {
  int trials = FullDepth() ? 60 : 8;
  for (int t = 0; t < trials; ++t) {
    TrialConfig config;
    config.seed = uint64_t(7000 + t);
    config.fsync_on_commit = false;
    config.checkpoint_every = 23;
    RunTableTrial(config);
  }
}

TEST(CrashRecoveryPropertyTest, TableSurvivesScheduledWalFsyncFailures) {
  int trials = FullDepth() ? 40 : 6;
  std::vector<int64_t> schedule =
      FullDepth() ? std::vector<int64_t>{2, 3, 5, 8, 13, 21}
                  : std::vector<int64_t>{3, 8};
  for (int64_t fail_after : schedule) {
    for (int t = 0; t < trials; ++t) {
      TrialConfig config;
      config.seed = uint64_t(8000 + t) * 31 + uint64_t(fail_after);
      config.fsync_on_commit = true;
      config.fail_after_fsyncs = fail_after;
      config.fault_filter = ".wal";
      RunTableTrial(config);
    }
  }
}

}  // namespace
}  // namespace graphbench
