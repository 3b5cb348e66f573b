// The GraphBench benchmark (README.md beside this file). One workload per
// process. Every round loads each of the nine SUTs afresh from one
// generated snapshot, then drives them with this file's own load
// generator through the public Sut, mq::Consumer and snb::DecodeUpdate
// calls: one SUT at a time, in short slices that cycle through all nine,
// so a machine whose speed drifts moves every SUT alike.
//
//   bench_graphbench --workload=short_reads --seed=1 --seconds=20
//   bench_graphbench --workload=short_reads --seed=1 --seconds=20 --trace=1
//
// The plain run prints the end-to-end metrics, the traced run the
// per-layer ones; both print `name value unit` lines and then one JSON
// line. Any answer that differs between SUTs, or from the update-stream
// oracle, exits 1 before a number is printed.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graphbench/answers.h"
#include "graphbench/latency_recorder.h"
#include "graphbench/trace.h"
#include "mq/broker.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "snb/datagen.h"
#include "snb/update_codec.h"
#include "storage/durability.h"
#include "storage/os_file.h"
#include "sut/sut.h"
#include "util/json.h"

namespace graphbench {
namespace perf {
namespace {

// An op is on time when it succeeds within this long of when it was due:
// its scheduled slot for a paced write, its issue for a closed-loop op.
constexpr double kOnTimeLimitUs = 10000;
constexpr int kReaders = 2;
constexpr double kPacedWritesPerSecond = 2000;
constexpr size_t kPollBatch = 64;
// Answers compared across SUTs per read kind before timing, and OneHop
// plus RecentPosts probes compared with the stream oracle after each
// durable_writes round (durable relational reads take ~10 ms each).
constexpr int kCheckQueries = 32;
constexpr int kStreamChecks = 8;
// The traced writer applies exactly this many ops to a fresh load, so the
// WAL and pager counts of durable_writes repeat exactly between runs.
constexpr uint64_t kWriteProbeOps = 2000;
// Spans kept per generator thread in a traced slice (at most four a
// request); counters and profiles still cover every request.
constexpr size_t kSpansPerLog = 800;
constexpr char kTopic[] = "updates";

struct MixEntry {
  ReadKind kind;
  double weight;
};

struct Workload {
  const char* name;
  std::vector<MixEntry> mix;  // the readers' mix; empty: no readers
  bool writer = false;
  double pace = 0;  // paced writes per second; 0: closed loop
  bool durable = false;
};

std::vector<Workload> AllWorkloads() {
  using K = ReadKind;
  return {
      {"short_reads",
       {{K::kPointLookup, .30},
        {K::kOneHop, .25},
        {K::kRecentPosts, .20},
        {K::kFriendsWithName, .15},
        {K::kRepliesOfPost, .10}}},
      {"complex_reads",
       {{K::kTwoHop, .50}, {K::kShortestPath, .40}, {K::kTopPosters, .10}}},
      {"interactive",
       {{K::kTwoHop, .10},
        {K::kOneHop, .25},
        {K::kRecentPosts, .20},
        {K::kPointLookup, .45}},
       true,
       kPacedWritesPerSecond},
      {"durable_writes", {}, true, 0, true},
  };
}

// ---------------------------------------------------------------------------
// Flags: --name=value.

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  int rounds = 5;
  int64_t persons = 0;  // 0: ScaleA
  double slice_ms = 40;
  std::string trace_dir = ".";
};

bool ParseNumber(const std::string& text, double* out) {
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && end != text.c_str() && *end == '\0' &&
         std::isfinite(*out);
}

bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      *error = "expected --name=value, got \"" + arg + "\"";
      return false;
    }
    std::string name = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    double number = 0;
    const bool numeric = ParseNumber(value, &number);
    const bool whole = numeric && number == std::floor(number);
    auto need = [&](bool ok) {
      if (!ok) *error = "invalid value for --" + name + ": \"" + value + "\"";
      return ok;
    };
    if (name == "workload") {
      flags->workload = value;
    } else if (name == "trace_dir") {
      flags->trace_dir = value;
    } else if (name == "seed") {
      if (!need(whole && number >= 0)) return false;
      flags->seed = uint64_t(number);
    } else if (name == "seconds") {
      if (!need(numeric && number > 0)) return false;
      flags->seconds = number;
    } else if (name == "trace") {
      if (!need(value == "0" || value == "1")) return false;
      flags->trace = value == "1";
    } else if (name == "rounds") {
      if (!need(whole && number >= 1)) return false;
      flags->rounds = int(number);
    } else if (name == "persons") {
      if (!need(whole && number >= 20)) return false;
      flags->persons = int64_t(number);
    } else if (name == "slice_ms") {
      if (!need(numeric && number > 0)) return false;
      flags->slice_ms = number;
    } else {
      *error = "unknown flag --" + name;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Generator threads.

/// What one generator thread saw in one slice; merged after the join.
/// Latency samples are kept only when `keep_samples` is set (traced runs),
/// so the plain run's peak RSS is the SUTs', not the harness's.
struct Tally {
  bool keep_samples = false;
  uint64_t reads_ok = 0;
  uint64_t reads_failed = 0;
  uint64_t writes_ok = 0;
  uint64_t writes_failed = 0;
  uint64_t on_time = 0;
  uint64_t missed = 0;  // paced ops due before the end but never issued
  uint64_t paced_due = 0;
  uint64_t paced_late = 0;
  LatencyRecorder reads;
  LatencyRecorder writes;
  LatencyRecorder gen_late;  // issue time minus due time
  obs::QueryProfile profile;
  double profiled_read_us = 0;
  double poll_us = 0;
  double decode_us = 0;

  uint64_t issued() const {
    return reads_ok + reads_failed + writes_ok + writes_failed;
  }
  uint64_t failed() const { return reads_failed + writes_failed; }

  void Merge(const Tally& o) {
    reads_ok += o.reads_ok;
    reads_failed += o.reads_failed;
    writes_ok += o.writes_ok;
    writes_failed += o.writes_failed;
    on_time += o.on_time;
    missed += o.missed;
    paced_due += o.paced_due;
    paced_late += o.paced_late;
    reads.Merge(o.reads);
    writes.Merge(o.writes);
    gen_late.Merge(o.gen_late);
    profile.Merge(o.profile);
    profiled_read_us += o.profiled_read_us;
    poll_us += o.poll_us;
    decode_us += o.decode_us;
  }
};

/// The writer's position in the update stream. It outlives a slice: a
/// batch already polled from the broker is applied by the next slice.
struct StreamCursor {
  explicit StreamCursor(mq::Broker* broker) : consumer(broker, kTopic) {}

  mq::Consumer consumer;
  std::vector<mq::Message> batch;
  size_t next = 0;
  uint64_t taken = 0;            // stream ops handed to the SUT
  std::vector<uint64_t> failed;  // stream indices whose Apply failed
  bool exhausted = false;
};

void SleepUntilUs(double due_us) {
  const double wait = due_us - NowUs();
  if (wait > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(wait));
  }
}

/// Closed-loop reads until the deadline. A null `sut` is the null arm: the
/// same draws, clock reads and counting, with no call to make. It is the
/// benchmark's own code only, so it stays a fixed yardstick for the
/// machine's speed whatever changes under src/.
void ReadLoop(Sut* sut, const char* sut_id, const std::vector<MixEntry>& mix,
              const RequestSource& source, uint64_t seed, double deadline_us,
              bool traced, SpanLog* spans, Tally* out) {
  SplitMix rng(seed);
  double free_us = NowUs();
  for (;;) {
    double roll = rng.NextDouble();
    ReadKind kind = mix.back().kind;
    for (const MixEntry& e : mix) {
      if (roll < e.weight) {
        kind = e.kind;
        break;
      }
      roll -= e.weight;
    }
    const ReadRequest request = source.Draw(kind, &rng);
    const double issue_us = NowUs();
    Status status;
    if (sut == nullptr) {
      // The null arm: nothing to call.
    } else if (traced) {
      obs::ProfileScope scope(&out->profile);
      status = Issue(sut, request);
    } else {
      status = Issue(sut, request);
    }
    const double done_us = NowUs();
    const double us = done_us - issue_us;
    if (status.ok()) {
      ++out->reads_ok;
      if (us <= kOnTimeLimitUs) ++out->on_time;
    } else {
      ++out->reads_failed;
    }
    if (out->keep_samples) {
      out->reads.Record(us, status.ok());
      out->gen_late.Record(issue_us - free_us, true);
    }
    if (traced) out->profiled_read_us += us;
    if (spans != nullptr && !spans->full()) {
      const uint64_t root = spans->NextId();
      spans->Add({root, root, 0, "read_request", sut_id, free_us, done_us});
      spans->Add({root, spans->NextId(), root, ReadKindName(kind), sut_id,
                  issue_us, done_us});
    }
    free_us = done_us;
    if (done_us >= deadline_us) return;
  }
}

/// Applies stream ops from `cursor` until the deadline, `max_ops`, or the
/// end of the stream. Paced when `pace` > 0: op i is due i/pace seconds
/// after `start_us` and is never issued early.
void WriteLoop(Sut* sut, const char* sut_id, StreamCursor* cursor,
               double pace, double start_us, double deadline_us,
               uint64_t max_ops, SpanLog* spans, Tally* out) {
  double free_us = start_us;
  uint64_t issued = 0;
  for (; issued < max_ops; ++issued) {
    const double due_us =
        pace > 0 ? start_us + double(issued) * 1e6 / pace : free_us;
    if (due_us >= deadline_us) break;
    if (pace > 0) SleepUntilUs(due_us);
    const double issue_us = NowUs();
    double polled_us = 0;
    if (cursor->next == cursor->batch.size()) {
      Result<std::vector<mq::Message>> polled =
          cursor->consumer.Poll(kPollBatch);
      polled_us = NowUs();
      out->poll_us += polled_us - issue_us;
      if (!polled.ok()) {
        ++out->writes_failed;
        break;
      }
      if (polled->empty()) {
        cursor->exhausted = true;
        break;
      }
      cursor->batch = std::move(polled).value();
      cursor->next = 0;
    }
    const double decode_us = NowUs();
    Result<snb::UpdateOp> op =
        snb::DecodeUpdate(cursor->batch[cursor->next++].payload);
    const double apply_us = NowUs();
    out->decode_us += apply_us - decode_us;
    const Status status = op.ok() ? sut->Apply(*op) : op.status();
    const double done_us = NowUs();
    const uint64_t index = cursor->taken++;
    const bool on_time = status.ok() && done_us - due_us <= kOnTimeLimitUs;
    if (status.ok()) {
      ++out->writes_ok;
    } else {
      ++out->writes_failed;
      cursor->failed.push_back(index);
    }
    if (on_time) ++out->on_time;
    if (pace > 0) {
      ++out->paced_due;
      if (!on_time) ++out->paced_late;
    }
    if (out->keep_samples) {
      out->writes.Record(done_us - issue_us, status.ok());
      out->gen_late.Record(issue_us - due_us, true);
    }
    if (spans != nullptr && !spans->full()) {
      const uint64_t root = spans->NextId();
      spans->Add({root, root, 0, "write_request", sut_id, issue_us, done_us});
      if (polled_us > 0) {
        spans->Add({root, spans->NextId(), root, "Poll", sut_id, issue_us,
                    polled_us});
      }
      spans->Add({root, spans->NextId(), root, "DecodeUpdate", sut_id,
                  decode_us, apply_us});
      spans->Add({root, spans->NextId(), root, "Apply", sut_id, apply_us,
                  done_us});
    }
    free_us = done_us;
  }
  if (pace > 0 && !cursor->exhausted && issued < max_ops) {
    // Ops that fell due before the deadline but were never issued are
    // late: the schedule does not wait for a slow SUT.
    const double end_us = std::min(NowUs(), deadline_us);
    const uint64_t due = uint64_t((end_us - start_us) * pace / 1e6) + 1;
    if (due > issued) {
      out->missed += due - issued;
      out->paced_due += due - issued;
      out->paced_late += due - issued;
    }
  }
}

/// One slice of a workload's generator over one SUT.
struct SliceSpec {
  double seconds = 0;
  const std::vector<MixEntry>* mix = nullptr;  // null: no readers
  bool writer = false;
  double pace = 0;
  uint64_t max_writes = UINT64_MAX;
  uint64_t reader_seed = 0;
  bool keep_samples = false;
  bool traced = false;  // profile every read
  bool spans = false;   // and record spans
};

struct SliceResult {
  double elapsed_s = 0;
  int threads = 0;
  Tally tally;
  /// Successful operations on the measured side: reads where the slice
  /// has readers, writes otherwise.
  uint64_t ops = 0;
};

SliceResult RunSlice(Sut* sut, const char* sut_id,
                     const RequestSource& source, StreamCursor* cursor,
                     const SliceSpec& spec, std::vector<Span>* trace) {
  const int readers = spec.mix != nullptr ? kReaders : 0;
  const int threads = readers + (spec.writer ? 1 : 0);
  std::vector<Tally> tallies(static_cast<size_t>(threads));
  static uint32_t next_log_tag = 1;  // slices run from the main thread only
  std::vector<SpanLog> logs;
  for (Tally& t : tallies) {
    t.keep_samples = spec.keep_samples;
    logs.emplace_back(next_log_tag++, kSpansPerLog);
  }
  auto log = [&](int t) { return spec.spans ? &logs[size_t(t)] : nullptr; };
  const double start_us = NowUs();
  const double deadline_us = start_us + spec.seconds * 1e6;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < readers; ++t) {
      workers.emplace_back([&, t] {
        ReadLoop(sut, sut_id, *spec.mix, source,
                 spec.reader_seed * 16 + uint64_t(t), deadline_us,
                 spec.traced, log(t), &tallies[size_t(t)]);
      });
    }
    if (spec.writer) {
      workers.emplace_back([&] {
        WriteLoop(sut, sut_id, cursor, spec.pace, start_us, deadline_us,
                  spec.max_writes, log(readers), &tallies[size_t(readers)]);
      });
    }
  }
  SliceResult result;
  result.elapsed_s = (NowUs() - start_us) / 1e6;
  result.threads = threads;
  for (const Tally& t : tallies) result.tally.Merge(t);
  for (const SpanLog& l : logs) {
    trace->insert(trace->end(), l.spans().begin(), l.spans().end());
  }
  result.ops = readers > 0 ? result.tally.reads_ok : result.tally.writes_ok;
  return result;
}

// ---------------------------------------------------------------------------
// Output checks.

std::vector<ReadRequest> CheckRequests(const std::vector<ReadKind>& kinds,
                                       int per_kind,
                                       const RequestSource& source,
                                       uint64_t seed) {
  SplitMix rng(seed);
  std::vector<ReadRequest> out;
  for (ReadKind kind : kinds) {
    for (int i = 0; i < per_kind; ++i) {
      out.push_back(source.Draw(kind, &rng));
    }
  }
  return out;
}

std::string Describe(const ReadRequest& r) {
  std::string out =
      std::string(ReadKindName(r.kind)) + "(" + std::to_string(r.id);
  if (r.kind == ReadKind::kShortestPath) out += "," + std::to_string(r.other);
  if (r.kind == ReadKind::kFriendsWithName) out += ",\"" + r.first_name + "\"";
  return out + ")";
}

/// Compares `sut`'s answers with `expected` (filled from the first SUT
/// checked when empty). Returns false after describing a mismatch.
bool CheckAgainst(Sut* sut, const char* sut_id,
                  const std::vector<ReadRequest>& requests,
                  std::vector<std::string>* expected,
                  const std::string& expected_from) {
  const bool fill = expected->empty();
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<std::string> answer = CanonicalAnswer(sut, requests[i]);
    if (!answer.ok()) {
      std::fprintf(stderr, "check: %s %s failed: %s\n", sut_id,
                   Describe(requests[i]).c_str(),
                   answer.status().ToString().c_str());
      return false;
    }
    if (fill) {
      expected->push_back(*answer);
    } else if ((*expected)[i] != *answer) {
      std::fprintf(stderr, "check: %s %s answered [%s], %s answered [%s]\n",
                   sut_id, Describe(requests[i]).c_str(), answer->c_str(),
                   expected_from.c_str(), (*expected)[i].c_str());
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Metric helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-300));
  return std::exp(log_sum / double(v.size()));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

using Counters = std::map<std::string, uint64_t>;

Counters SnapshotCounters() {
  Counters out;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Default().Snapshot().counters) {
    out[name] = value;
  }
  return out;
}

void AddDelta(const Counters& before, const Counters& after, Counters* acc) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    (*acc)[name] += value - (it == before.end() ? 0 : it->second);
  }
}

uint64_t Get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// Operator rows by layer, matched by the row names the src/ pipelines
// record: the language front ends, the Gremlin Server round trip, the
// TinkerPop traversal machine; every other row is engine work.
enum class Layer { kLang, kServer, kTraversal, kEngine };

Layer LayerOf(const std::string& row) {
  static const char* kLang[] = {"Parse", "parse", "plan", "resolve_terms"};
  static const char* kServer[] = {"serialize", "dispatchRequest",
                                  "decodeRequest", "encodeResults",
                                  "deserialize"};
  for (const char* name : kLang) {
    if (row == name) return Layer::kLang;
  }
  for (const char* name : kServer) {
    if (row == name) return Layer::kServer;
  }
  // Traversal steps are named like "out()" or "repeat(both()).until()".
  if ((!row.empty() && row.back() == ')') || row == "buildTraversal" ||
      row == "materializeResult") {
    return Layer::kTraversal;
  }
  return Layer::kEngine;
}

// The SUTs whose operator rows carry a language front end, the four that
// run behind the Gremlin Server, and the four with a paged durable store.
bool HasLanguage(SutKind k) {
  return k == SutKind::kNeo4jCypher || k == SutKind::kSqlg ||
         k == SutKind::kPostgresSql || k == SutKind::kVirtuosoSql ||
         k == SutKind::kVirtuosoSparql;
}

bool IsGremlin(SutKind k) {
  return k == SutKind::kNeo4jGremlin || k == SutKind::kTitanC ||
         k == SutKind::kTitanB || k == SutKind::kSqlg;
}

bool IsPaged(SutKind k) {
  return k == SutKind::kNeo4jCypher || k == SutKind::kTitanB ||
         k == SutKind::kPostgresSql || k == SutKind::kVirtuosoSql;
}

// The db and log file stems a durable SUT may create in its directory.
constexpr const char* kStorageComponents[] = {"neo4j", "titanb", "rel_row",
                                              "rel_col"};

// Lock-wait counters (obs::TimedSharedMutex) by the layer that owns them.
constexpr std::pair<const char*, const char*> kLockCounters[] = {
    {"engines.rdf", "rdf.lock_wait_us"},
    {"engines.relational", "relational.lock_wait_us"},
    {"engines.titan", "titan.lock_wait_us"},
    {"providers.sqlg", "sqlg.lock_wait_us"},
    {"kv.btree", "btree.lock_wait_us"},
    {"kv.paged_btree", "paged_btree.lock_wait_us"},
    {"storage", "storage.lock_wait_us"},
};

/// Everything measured for one SUT (or the null SUT) across a run.
struct SutRecord {
  const char* id = "";
  SutKind kind = SutKind::kMatrix;
  std::vector<double> load_s;      // one per round
  std::vector<double> size_ratio;  // one per round
  std::vector<double> file_ratio;  // one per round
  // Measured-side successes and their seconds over the untraced timed
  // slices, and over the traced ones.
  double ops = 0;
  double seconds = 0;
  double traced_ops = 0;
  double traced_seconds = 0;
  Tally timed;                       // untraced timed slices
  Tally traced;                      // traced slices and traced checks
  Tally probe;                       // write probes
  LatencyRecorder check_reads;       // durable_writes oracle probes
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Counters probe_delta;   // around the write probes
  Counters traced_delta;  // around the traced slices and checks
  double traced_thread_us = 0;

  void Account(const SliceResult& r) {
    attempted += r.tally.issued();
    failed += r.tally.failed();
  }
};

/// One SUT loaded for a round, with its own in-memory file system when
/// the workload is durable and its own position in the update stream.
struct LiveSut {
  std::unique_ptr<storage::MemFileSystem> fs;  // null unless durable
  std::unique_ptr<Sut> sut;                    // destroyed before fs
  std::unique_ptr<StreamCursor> cursor;
};

/// Creates and loads the SUT afresh, on a fresh file system if durable;
/// `load_s` receives the seconds `Sut::Load` took.
Status Open(SutKind kind, const char* id, const Workload& workload,
            const snb::Dataset& data, mq::Broker* broker, LiveSut* live,
            double* load_s) {
  live->sut.reset();
  live->fs.reset();
  SutOptions options;
  if (workload.durable) {
    live->fs = std::make_unique<storage::MemFileSystem>();
    options.durability.enabled = true;
    options.durability.dir = id;
    options.durability.fs = live->fs.get();
  }
  live->sut = MakeSut(kind, options);
  if (live->sut == nullptr) return Status::Internal("cannot create SUT");
  live->cursor = std::make_unique<StreamCursor>(broker);
  const double start = NowUs();
  Status loaded = live->sut->Load(data);
  *load_s = (NowUs() - start) / 1e6;
  return loaded;
}

/// Bytes in the db and log files a durable SUT keeps under `dir`.
double StoredBytes(storage::MemFileSystem* fs, const char* dir) {
  if (fs == nullptr) return 0;
  storage::DurabilityOptions where;
  where.dir = dir;
  double bytes = 0;
  for (const char* component : kStorageComponents) {
    for (const std::string& path : {storage::DbPath(where, component),
                                    storage::WalPath(where, component)}) {
      if (!fs->Exists(path)) continue;
      auto file = fs->Open(path);
      if (file.ok()) bytes += double((*file)->Size().value_or(0));
    }
  }
  return bytes;
}

/// `name value unit` lines plus the JSON object, in insertion order.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    std::printf("%s %.6g %s\n", name.c_str(), value, unit);
    Json metric = Json::Object();
    metric.Set("value", Json::Number(value));
    metric.Set("unit", Json::Str(unit));
    metrics_.Set(name, std::move(metric));
  }
  const Json& metrics() const { return metrics_; }

 private:
  Json metrics_ = Json::Object();
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024;
}

// ---------------------------------------------------------------------------

int Run(const Flags& flags) {
  const std::vector<Workload> workloads = AllWorkloads();
  auto found = std::find_if(
      workloads.begin(), workloads.end(),
      [&](const Workload& w) { return flags.workload == w.name; });
  if (found == workloads.end()) {
    std::fprintf(stderr,
                 "unknown --workload \"%s\" (expected short_reads, "
                 "complex_reads, interactive or durable_writes)\n",
                 flags.workload.c_str());
    return 2;
  }
  const Workload& workload = *found;
  const std::vector<SutKind> kinds = AllSutKinds();
  const size_t n_suts = kinds.size();
  const double slice_s = flags.slice_ms / 1000;
  // Each cycle runs one slice of the null arm and one of every SUT. The
  // traced run splits each SUT slice into an untraced and a traced half,
  // so both runs take as long.
  const int cycles = std::max(
      1, int(std::lround(flags.seconds /
                         (flags.rounds * double(n_suts + 1) * slice_s))));
  const double timed_s = flags.trace ? slice_s / 2 : slice_s;

  snb::DatagenOptions scale = snb::ScaleA();
  scale.update_window = 0.3;
  if (flags.persons > 0) scale.num_persons = uint32_t(flags.persons);
  const double gen_start = NowUs();
  const snb::Dataset data = snb::Generate(scale);
  const double gen_s = (NowUs() - gen_start) / 1e6;
  const double raw_bytes = double(data.RawBytes());
  std::fprintf(stderr,
               "%s: %llu vertices, %llu edges, %.2f MB raw, %zu update ops; "
               "%d rounds x %d cycles x %zu SUTs x %.0f ms\n",
               workload.name, (unsigned long long)data.VertexCount(),
               (unsigned long long)data.EdgeCount(), raw_bytes / 1e6,
               data.update_stream.size(), flags.rounds, cycles, n_suts + 1,
               slice_s * 1000);

  mq::Broker broker;
  if (!broker.CreateTopic(kTopic, 1).ok()) return 1;
  {
    // One partition keeps the stream in scheduled order, so stream index
    // i is data.update_stream[i] for the oracle.
    mq::Producer producer(&broker, kTopic);
    for (const snb::UpdateOp& op : data.update_stream) {
      if (!producer.Send("", snb::EncodeUpdate(op), op.scheduled_date).ok()) {
        return 1;
      }
    }
  }

  // The reads the workload issues; a writer-only workload is checked, and
  // its null arm driven, with the two reads its update stream changes.
  const std::vector<MixEntry> read_mix =
      workload.mix.empty()
          ? std::vector<MixEntry>{{ReadKind::kOneHop, .5},
                                  {ReadKind::kRecentPosts, .5}}
          : workload.mix;
  std::vector<ReadKind> check_kinds;
  for (const MixEntry& e : read_mix) check_kinds.push_back(e.kind);
  const RequestSource source(data);
  const std::vector<ReadRequest> check_requests =
      CheckRequests(check_kinds, kCheckQueries, source, flags.seed * 31 + 5);
  std::vector<std::string> expected;
  std::string expected_from;

  std::vector<SutRecord> records(n_suts);
  for (size_t i = 0; i < n_suts; ++i) {
    records[i].kind = kinds[i];
    records[i].id = SutKindId(kinds[i]);
  }
  SutRecord null_record;
  null_record.id = "null";
  std::vector<Span> trace;
  SpanLog load_log(0, SIZE_MAX);

  SliceSpec timed;
  timed.seconds = timed_s;
  timed.mix = workload.mix.empty() ? nullptr : &workload.mix;
  timed.writer = workload.writer;
  timed.pace = workload.pace;
  timed.keep_samples = flags.trace;
  // The null arm: the same readers with nothing to call.
  SliceSpec null_spec;
  null_spec.seconds = timed_s;
  null_spec.mix = &read_mix;
  double loaded_rss_mb = 0;
  double reload_s = 0;
  double check_s = 0;

  for (int round = 0; round < flags.rounds; ++round) {
    const uint64_t round_seed = (flags.seed * 64 + uint64_t(round)) * 4096;
    std::vector<LiveSut> live(n_suts);
    for (size_t n = 0; n < n_suts; ++n) {
      // Rotating the order spreads drift of the machine over the SUTs.
      const size_t i = (n + size_t(round)) % n_suts;
      SutRecord& rec = records[i];
      double load_s = 0;
      Status opened =
          Open(rec.kind, rec.id, workload, data, &broker, &live[i], &load_s);
      if (!opened.ok()) {
        std::fprintf(stderr, "%s: load: %s\n", rec.id,
                     opened.ToString().c_str());
        return 1;
      }
      const uint64_t span = load_log.NextId();
      const double end_us = NowUs();
      load_log.Add(
          {span, span, 0, "Load", rec.id, end_us - load_s * 1e6, end_us});
      rec.load_s.push_back(load_s);
      rec.size_ratio.push_back(double(live[i].sut->SizeBytes()) / raw_bytes);
      rec.file_ratio.push_back(StoredBytes(live[i].fs.get(), rec.id) /
                               raw_bytes);
      if (round == 0) {
        if (!CheckAgainst(live[i].sut.get(), rec.id, check_requests,
                          &expected, expected_from)) {
          return 1;
        }
        if (expected_from.empty()) expected_from = rec.id;
      }
      if (flags.trace) {
        SliceSpec probe;
        probe.seconds = 1e9;
        probe.writer = true;
        probe.max_writes = kWriteProbeOps;
        probe.keep_samples = true;
        probe.spans = true;
        const Counters before = SnapshotCounters();
        SliceResult r = RunSlice(live[i].sut.get(), rec.id, source,
                                 live[i].cursor.get(), probe, &trace);
        AddDelta(before, SnapshotCounters(), &rec.probe_delta);
        rec.probe.Merge(r.tally);
        rec.Account(r);
      }
    }
    // Memory with all nine SUTs loaded: what the write slices add depends
    // on how far each SUT got, so a later peak would measure speed.
    if (round == 0) loaded_rss_mb = PeakRssMb();

    // The first cycle warms every SUT up and is not counted.
    for (int cycle = 0; cycle <= cycles; ++cycle) {
      const bool counted = cycle > 0;
      SliceSpec spec = timed;
      spec.reader_seed = round_seed + uint64_t(cycle);
      if (counted) {
        SliceSpec calibration = null_spec;
        calibration.reader_seed = spec.reader_seed;
        SliceResult r =
            RunSlice(nullptr, "null", source, nullptr, calibration, &trace);
        null_record.ops += double(r.ops);
        null_record.seconds += r.elapsed_s;
      }
      for (size_t n = 0; n < n_suts; ++n) {
        const size_t i = (n + size_t(round) + size_t(cycle)) % n_suts;
        SutRecord& rec = records[i];
        LiveSut& sut = live[i];
        if (sut.cursor->exhausted) {
          // A fast writer has applied the whole stream: start it over on a
          // fresh load, outside the timed slices.
          double load_s = 0;
          Status reopened =
              Open(rec.kind, rec.id, workload, data, &broker, &sut, &load_s);
          reload_s += load_s;
          if (!reopened.ok()) {
            std::fprintf(stderr, "%s: reload: %s\n", rec.id,
                         reopened.ToString().c_str());
            return 1;
          }
        }
        SliceResult r = RunSlice(sut.sut.get(), rec.id, source,
                                 sut.cursor.get(), spec, &trace);
        rec.Account(r);
        if (!counted) continue;
        rec.timed.Merge(r.tally);
        rec.ops += double(r.ops);
        rec.seconds += r.elapsed_s;
        if (!flags.trace) continue;
        SliceSpec traced = spec;
        traced.traced = true;
        traced.spans = cycle == 1;
        const Counters before = SnapshotCounters();
        SliceResult t = RunSlice(sut.sut.get(), rec.id, source,
                                 sut.cursor.get(), traced, &trace);
        AddDelta(before, SnapshotCounters(), &rec.traced_delta);
        rec.Account(t);
        rec.traced.Merge(t.tally);
        rec.traced_ops += double(t.ops);
        rec.traced_seconds += t.elapsed_s;
        rec.traced_thread_us += t.elapsed_s * 1e6 * t.threads;
      }
    }

    if (workload.durable) {
      // Every SUT has applied its own prefix of the stream; each must
      // answer as the snapshot plus exactly that prefix.
      const double check_start = NowUs();
      for (size_t i = 0; i < n_suts; ++i) {
        SutRecord& rec = records[i];
        const StreamCursor& cursor = *live[i].cursor;
        StreamOracle oracle(data);
        size_t next_failed = 0;
        for (uint64_t op = 0; op < cursor.taken; ++op) {
          if (next_failed < cursor.failed.size() &&
              cursor.failed[next_failed] == op) {
            ++next_failed;
            continue;
          }
          oracle.Apply(data.update_stream[op]);
        }
        SplitMix probe_rng(round_seed + 4095);
        const std::vector<ReadRequest> probes =
            oracle.Probes(kStreamChecks / 2, &probe_rng);
        const Counters before = SnapshotCounters();
        for (const ReadRequest& q : probes) {
          const double start = NowUs();
          Result<std::string> answer = [&] {
            obs::ProfileScope scope(flags.trace ? &rec.traced.profile
                                                : nullptr);
            return CanonicalAnswer(live[i].sut.get(), q);
          }();
          const double us = NowUs() - start;
          rec.check_reads.Record(us, answer.ok());
          if (flags.trace) {
            rec.traced.profiled_read_us += us;
            ++(answer.ok() ? rec.traced.reads_ok : rec.traced.reads_failed);
          }
          const std::string want = oracle.Expected(q);
          if (!answer.ok() || *answer != want) {
            std::fprintf(
                stderr,
                "check: %s %s after %llu stream ops answered [%s], the "
                "oracle [%s]\n",
                rec.id, Describe(q).c_str(), (unsigned long long)cursor.taken,
                answer.ok() ? answer->c_str()
                            : answer.status().ToString().c_str(),
                want.c_str());
            return 1;
          }
        }
        if (flags.trace) {
          AddDelta(before, SnapshotCounters(), &rec.traced_delta);
        }
      }
      check_s += (NowUs() - check_start) / 1e6;
    }
  }
  double setup_total_s = 0;
  for (const SutRecord& rec : records) {
    for (double s : rec.load_s) setup_total_s += s;
  }
  std::fprintf(stderr,
               "%.1f s: loads %.1f s, reloads %.1f s, stream checks %.1f s, "
               "null arm %.4g reads/s\n",
               (NowUs() - gen_start) / 1e6, setup_total_s, reload_s, check_s,
               Ratio(null_record.ops, null_record.seconds));

  // ---- Report --------------------------------------------------------------
  MetricSink sink;
  uint64_t attempted = 0, failed = 0;
  std::vector<double> vs_null, overhead, sizes;
  // A SUT's set-up time is its fastest load of the run: interference from
  // other tenants only ever adds time, and the median over rounds moved by
  // a third between two sets of runs of one commit.
  auto fastest_load = [](const SutRecord& rec) {
    return *std::min_element(rec.load_s.begin(), rec.load_s.end());
  };
  double setup_s = 0;
  const double null_ops_s = Ratio(null_record.ops, null_record.seconds);
  for (const SutRecord& rec : records) {
    attempted += rec.attempted;
    failed += rec.failed;
    vs_null.push_back(Ratio(Ratio(rec.ops, rec.seconds), null_ops_s));
    overhead.push_back(Ratio(Ratio(rec.traced_ops, rec.traced_seconds),
                             Ratio(rec.ops, rec.seconds)));
    sizes.push_back(Median(rec.size_ratio));
    setup_s += fastest_load(rec);
  }

  if (!flags.trace) {
    sink.Add("setup_s", setup_s, "s");
    for (size_t i = 0; i < n_suts; ++i) {
      sink.Add(std::string("ops_vs_null.") + records[i].id, vs_null[i],
               "ratio");
    }
    sink.Add("ops_vs_null.geomean", GeoMean(vs_null), "ratio");
    double on_time_sum = 0;
    for (const SutRecord& rec : records) {
      on_time_sum += Ratio(double(rec.timed.on_time),
                           double(rec.timed.issued() + rec.timed.missed));
    }
    sink.Add("on_time_share", on_time_sum / double(n_suts), "share");
    sink.Add("peak_rss_mb", loaded_rss_mb, "MB");
    sink.Add("size_ratio", GeoMean(sizes), "ratio");
  } else {
    Tally all;
    Counters probe_delta, traced_delta;
    double traced_thread_us = 0;
    for (const SutRecord& rec : records) {
      all.Merge(rec.timed);
      for (const auto& [k, v] : rec.probe_delta) probe_delta[k] += v;
      for (const auto& [k, v] : rec.traced_delta) traced_delta[k] += v;
      traced_thread_us += rec.traced_thread_us;
    }
    sink.Add("bench.null_ops_s", null_ops_s, "1/s");
    sink.Add("bench.gen_late_p99_us", all.gen_late.OkPercentile(99), "us");
    sink.Add("bench.trace_overhead_pct", 100 * (1 - GeoMean(overhead)), "%");
    sink.Add("bench.late_share",
             Ratio(double(all.paced_late), double(all.paced_due)), "share");
    sink.Add("bench.error_share", Ratio(double(failed), double(attempted)),
             "share");
    sink.Add("snb.gen_s", gen_s, "s");

    Tally probes;
    for (const SutRecord& rec : records) probes.Merge(rec.probe);
    const double probe_writes = double(probes.issued());
    sink.Add("mq.poll_us_per_op", Ratio(probes.poll_us, probe_writes),
             "us/op");
    sink.Add("mq.decode_us_per_op", Ratio(probes.decode_us, probe_writes),
             "us/op");

    for (const SutRecord& rec : records) {
      sink.Add(std::string("sut.") + rec.id + ".ops_s",
               Ratio(rec.ops, rec.seconds), "1/s");
    }
    for (const SutRecord& rec : records) {
      sink.Add(std::string("sut.") + rec.id + ".load_s", fastest_load(rec),
               "s");
    }
    for (const SutRecord& rec : records) {
      LatencyRecorder reads = rec.timed.reads;
      reads.Merge(rec.check_reads);
      const std::string p = std::string("sut.") + rec.id;
      sink.Add(p + ".read_p50_us", reads.OkPercentile(50), "us");
      sink.Add(p + ".read_p99_us", reads.OkPercentile(99), "us");
    }
    for (const SutRecord& rec : records) {
      const std::string p = std::string("sut.") + rec.id;
      sink.Add(p + ".write_p50_us", rec.probe.writes.OkPercentile(50), "us");
      sink.Add(p + ".write_p99_us", rec.probe.writes.OkPercentile(99), "us");
    }
    for (const SutRecord& rec : records) {
      sink.Add(std::string("sut.") + rec.id + ".size_ratio",
               Median(rec.size_ratio), "ratio");
    }

    // Read wall time split by operator rows; what no row covers is the
    // SUT facade plus uninstrumented code.
    for (const SutRecord& rec : records) {
      double by_layer[4] = {0, 0, 0, 0};
      for (const obs::OpStats& row : rec.traced.profile.ops()) {
        by_layer[int(LayerOf(row.name))] += double(row.self_micros);
      }
      const double wall = rec.traced.profiled_read_us;
      const double covered =
          by_layer[0] + by_layer[1] + by_layer[2] + by_layer[3];
      const std::string id = rec.id;
      sink.Add("sut." + id + ".unprofiled_share",
               Ratio(wall - covered, wall), "share");
      if (HasLanguage(rec.kind)) {
        sink.Add("lang." + id + ".share", Ratio(by_layer[0], wall), "share");
      }
      if (IsGremlin(rec.kind)) {
        sink.Add("tinkerpop." + id + ".server_share",
                 Ratio(by_layer[1], wall), "share");
        sink.Add("tinkerpop." + id + ".traversal_share",
                 Ratio(by_layer[2], wall), "share");
      }
      sink.Add("engines." + id + ".share", Ratio(by_layer[3], wall), "share");
    }
    for (const SutRecord& rec : records) {
      if (rec.kind != SutKind::kMatrix) continue;
      sink.Add("engines.matrix.spmv_rows_per_read",
               Ratio(double(Get(rec.traced_delta, "matrix.spmv_rows")),
                     double(rec.traced.reads_ok + rec.traced.reads_failed)),
               "rows/op");
    }
    // Share of the traced slices' generator-thread time spent waiting on
    // each lock family (a thread blocked in a SUT call is waiting or busy).
    for (const auto& [layer, counter] : kLockCounters) {
      sink.Add(std::string(layer) + ".lock_wait_share",
               Ratio(double(Get(traced_delta, counter)), traced_thread_us),
               "share");
    }
    for (const SutRecord& rec : records) {
      if (!IsPaged(rec.kind)) continue;
      const std::string p = std::string("storage.") + rec.id;
      const double writes = double(rec.probe.issued());
      sink.Add(p + ".wal_bytes_per_write",
               Ratio(double(Get(rec.probe_delta, "wal.log_bytes")), writes),
               "B/op");
      sink.Add(p + ".evictions_per_write",
               Ratio(double(Get(rec.probe_delta, "pager.evictions")), writes),
               "1/op");
      sink.Add(p + ".flushes_per_write",
               Ratio(double(Get(rec.probe_delta, "pager.flushes")), writes),
               "1/op");
      sink.Add(p + ".file_bytes_per_raw_byte", Median(rec.file_ratio),
               "ratio");
    }
    const double retired = double(Get(probe_delta, "epoch.retired_objects"));
    sink.Add("concurrency.epoch_retired_per_write",
             Ratio(retired, probe_writes), "1/op");
    sink.Add("concurrency.epoch_reclaimed_share",
             Ratio(double(Get(probe_delta, "epoch.reclaimed")), retired),
             "share");

    trace.insert(trace.end(), load_log.spans().begin(),
                 load_log.spans().end());
    const std::string path =
        flags.trace_dir + "/TRACE_" + workload.name + ".json";
    Status written = WriteTraceFile(path, workload.name, flags.seed, trace);
    if (!written.ok()) {
      std::fprintf(stderr, "trace: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s (%zu spans)\n", path.c_str(),
                 trace.size());
  }

  Json out = Json::Object();
  out.Set("correct", Json::Bool(true));
  out.Set("attempted", Json::Int(int64_t(attempted)));
  out.Set("failed", Json::Int(int64_t(failed)));
  out.Set("metrics", sink.metrics());
  std::printf("%s\n", out.Serialize().c_str());
  return 0;
}

}  // namespace
}  // namespace perf
}  // namespace graphbench

int main(int argc, char** argv) {
  graphbench::perf::Flags flags;
  std::string error;
  if (!graphbench::perf::ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  return graphbench::perf::Run(flags);
}
