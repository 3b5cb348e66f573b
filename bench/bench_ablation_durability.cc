// Ablation (DESIGN.md §12): what durability costs the BerkeleyDB-analog
// write path. Three configurations of the same B-tree contract:
//
//   in-memory        — BTreeKv, the paper's memory-resident methodology
//   paged            — PagedBTreeKv over the pager/WAL, group durability
//                      (log buffered, fsync at checkpoints/evictions)
//   paged+fsync      — PagedBTreeKv with fsync_on_commit: every Put is
//                      a logged, fsynced commit before it acks
//
// Reports load/read/update throughput plus the WAL traffic behind it, so
// the gap between "specialized vs general" and "memory-resident vs
// durable" can be separated when reading the paper's Table 4/Figure 3.
// Each pass loads a fresh store; after one warm-up pass of every mode,
// kPasses timed passes run with the modes interleaved, and each
// throughput column is the median pass with its min-max, so a column can
// be compared across commits. The WAL columns are the same every pass.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "kv/btree_kv.h"
#include "kv/paged_btree_kv.h"
#include "obs/metrics.h"
#include "storage/durability.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace graphbench {
namespace {

std::string KeyFor(int64_t i) {
  return StringPrintf("person:%012lld", (long long)i);
}

struct ModeResult {
  double load_kops = 0;
  double get_kops = 0;
  double update_kops = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoints = 0;
};

constexpr int kPasses = 5;

// One pass of `mode` on a fresh store: load `keys`, then `gets` random
// reads, then `updates` random overwrites, then a checkpoint.
Result<ModeResult> RunPass(const std::string& mode, const std::string& dir,
                           int64_t keys, int64_t gets, int64_t updates,
                           const std::string& value) {
  const bool paged = mode != "in-memory";
  const bool fsync_commit = mode == "paged+fsync";
  storage::FileSystem* fs = storage::PosixFileSystem::Default();
  std::unique_ptr<KvStore> kv;
  storage::Pager* pager = nullptr;
  if (paged) {
    std::string stem = dir + "/" + (fsync_commit ? "fsync" : "group");
    (void)fs->Remove(stem + ".db");
    (void)fs->Remove(stem + ".wal");
    storage::PagerOptions options;
    options.cache_pages = 2048;
    options.fsync_on_commit = fsync_commit;
    GB_ASSIGN_OR_RETURN(
        std::unique_ptr<PagedBTreeKv> opened,
        PagedBTreeKv::Open(fs, stem + ".db", stem + ".wal", options));
    pager = opened->pager();
    kv = std::move(opened);
  } else {
    kv = std::make_unique<BTreeKv>();
  }

  const uint64_t fsyncs_before = pager ? pager->wal()->fsyncs() : 0;
  const uint64_t bytes_before = pager ? pager->wal()->log_bytes() : 0;

  ModeResult r;
  Stopwatch timer;
  for (int64_t i = 0; i < keys; ++i) {
    GB_RETURN_IF_ERROR(kv->Put(KeyFor(i), value));
  }
  r.load_kops = double(keys) / timer.ElapsedSeconds() / 1000.0;

  Rng rng(7);
  timer.Reset();
  std::string out;
  for (int64_t i = 0; i < gets; ++i) {
    GB_RETURN_IF_ERROR(
        kv->Get(KeyFor(int64_t(rng.Uniform(uint64_t(keys)))), &out));
  }
  r.get_kops = double(gets) / timer.ElapsedSeconds() / 1000.0;

  timer.Reset();
  for (int64_t i = 0; i < updates; ++i) {
    GB_RETURN_IF_ERROR(
        kv->Put(KeyFor(int64_t(rng.Uniform(uint64_t(keys)))), value));
  }
  r.update_kops = double(updates) / timer.ElapsedSeconds() / 1000.0;

  if (pager != nullptr) {
    GB_RETURN_IF_ERROR(pager->Checkpoint());
    r.wal_fsyncs = pager->wal()->fsyncs() - fsyncs_before;
    r.wal_bytes = pager->wal()->log_bytes() - bytes_before;
    r.checkpoints = pager->checkpoints_taken();
  }
  return r;
}

// The median of the timed passes and their range.
struct Spread {
  double median, min, max;
};

Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return {n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2, v.front(),
          v.back()};
}

std::string FormatSpread(const Spread& s) {
  return StringPrintf("%.1f (%.1f-%.1f)", s.median, s.min, s.max);
}

}  // namespace
}  // namespace graphbench

int main(int argc, char** argv) {
  using namespace graphbench;
  std::printf("=== Ablation: durability cost on the Titan-B substrate ===\n");
  const int64_t keys = bench::FlagInt(argc, argv, "keys", 20000);
  const int64_t gets = bench::FlagInt(argc, argv, "gets", 40000);
  const int64_t updates = bench::FlagInt(argc, argv, "updates", 10000);
  const std::string dir =
      bench::FlagValue(argc, argv, "durable_dir", "ablation_durable");
  const std::string value(120, 'v');

  storage::FileSystem* fs = storage::PosixFileSystem::Default();
  Status dir_ok = fs->CreateDir(dir);
  if (!dir_ok.ok()) {
    std::fprintf(stderr, "--durable_dir: %s\n", dir_ok.ToString().c_str());
    return 2;
  }

  TablePrinter table("Durability ablation — B-tree KV substrate");
  table.SetHeader({"Mode", "Load kops/s", "Get kops/s", "Update kops/s",
                   "WAL fsyncs", "WAL MB", "Checkpoints"});
  std::printf("Throughput: median of %d interleaved passes (min-max), after "
              "one warm-up pass; each pass loads a fresh store.\n",
              kPasses);

  obs::BenchReport report("ablation_durability");
  report.SetParam("keys", Json::Int(keys));
  report.SetParam("gets", Json::Int(gets));
  report.SetParam("updates", Json::Int(updates));
  report.SetParam("value_bytes", Json::Int(int64_t(value.size())));

  report.SetParam("passes", Json::Int(kPasses));

  const std::vector<std::string> modes = {"in-memory", "paged",
                                          "paged+fsync"};
  // passes[m]: mode m's timed passes, in run order.
  std::vector<std::vector<ModeResult>> passes(modes.size());
  for (int pass = 0; pass <= kPasses; ++pass) {  // pass 0 warms up
    for (size_t m = 0; m < modes.size(); ++m) {
      Result<ModeResult> r =
          RunPass(modes[m], dir, keys, gets, updates, value);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", modes[m].c_str(),
                     r.status().ToString().c_str());
        return 1;
      }
      if (pass > 0) passes[m].push_back(*r);
    }
  }

  for (size_t m = 0; m < modes.size(); ++m) {
    std::vector<double> load, get, update;
    for (const ModeResult& r : passes[m]) {
      load.push_back(r.load_kops);
      get.push_back(r.get_kops);
      update.push_back(r.update_kops);
    }
    const Spread l = SpreadOf(load), g = SpreadOf(get), u = SpreadOf(update);
    const ModeResult& last = passes[m].back();
    table.AddRow({modes[m], FormatSpread(l), FormatSpread(g), FormatSpread(u),
                  std::to_string(last.wal_fsyncs),
                  StringPrintf("%.1f", double(last.wal_bytes) / 1e6),
                  std::to_string(last.checkpoints)});
    Json metrics = Json::Object();
    auto add = [&metrics](const std::string& name, const Spread& s) {
      metrics.Set(name, Json::Number(s.median));
      metrics.Set(name + "_min", Json::Number(s.min));
      metrics.Set(name + "_max", Json::Number(s.max));
    };
    add("load_kops", l);
    add("get_kops", g);
    add("update_kops", u);
    metrics.Set("wal_fsyncs", Json::Int(int64_t(last.wal_fsyncs)));
    metrics.Set("wal_bytes", Json::Int(int64_t(last.wal_bytes)));
    metrics.Set("checkpoints", Json::Int(int64_t(last.checkpoints)));
    report.AddSystem(modes[m], std::move(metrics));
  }
  table.Print();
  std::printf("\nExpected shape: paged reads stay near in-memory (the "
              "buffer pool holds the working set; reads never touch the "
              "WAL) while paged writes pay WAL serialization + page "
              "logging; paged+fsync further collapses write throughput "
              "to the fsync rate — the cost the paper's memory-resident "
              "runs never pay.\n");
  bench::WriteReport(report, argc, argv);
  return 0;
}
