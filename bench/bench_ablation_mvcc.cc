// Ablation (DESIGN.md §11): epoch-snapshot reads vs coarse reader-writer
// locking. The epoch arm is the SUT as shipped — hot read paths pin an
// epoch and walk immutable published versions, taking no reader lock. The
// coarse arm re-imposes the retired discipline from outside: a wrapper
// takes a shared_mutex in shared mode around every read and in exclusive
// mode around every write, so one writer stalls all readers exactly the
// way the pre-MVCC engines did. Sweeping reader counts × write pacing
// isolates (a) what reader-lock traffic costs even uncontended and (b) how
// reader throughput and tail latency collapse once a paced writer keeps
// taking the exclusive lock. Both arms run the same driver mix over the
// same snapshot, so rows differ only in concurrency control.

#include <cstdio>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "bench_common.h"
#include "driver/driver.h"
#include "mq/broker.h"
#include "snb/params.h"
#include "sut/sut.h"

namespace graphbench {
namespace {

/// Re-imposes the coarse reader-writer lock the epoch subsystem retired.
/// Every read holds the lock in shared mode for its full duration, every
/// write in exclusive mode — the strictest form of what native_graph,
/// lsm_kv, and the matrix engine used to do internally per structure.
class CoarseLockSut : public Sut {
 public:
  explicit CoarseLockSut(std::unique_ptr<Sut> inner)
      : Sut(inner->kind(), Facade::kForward), inner_(std::move(inner)) {}

  uint64_t SizeBytes() const override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return inner_->SizeBytes();
  }

 protected:
  Status DoLoad(const snb::Dataset& data) override {
    std::unique_lock<std::shared_mutex> lock(mu_);
    return inner_->Load(data);
  }
  Result<QueryResult> DoPointLookup(int64_t person_id) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return inner_->PointLookup(person_id);
  }
  Result<QueryResult> DoOneHop(int64_t person_id) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return inner_->OneHop(person_id);
  }
  Result<QueryResult> DoTwoHop(int64_t person_id) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return inner_->TwoHop(person_id);
  }
  Result<int> DoShortestPathLen(int64_t from_person,
                                int64_t to_person) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return inner_->ShortestPathLen(from_person, to_person);
  }
  Result<QueryResult> DoRecentPosts(int64_t person_id,
                                    int64_t limit) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return inner_->RecentPosts(person_id, limit);
  }
  Result<QueryResult> DoFriendsWithName(
      int64_t person_id, const std::string& first_name) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return inner_->FriendsWithName(person_id, first_name);
  }
  Result<QueryResult> DoRepliesOfPost(int64_t post_id) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return inner_->RepliesOfPost(post_id);
  }
  Result<QueryResult> DoTopPosters(int64_t limit) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return inner_->TopPosters(limit);
  }
  Status DoApply(const snb::UpdateOp& op) override {
    std::unique_lock<std::shared_mutex> lock(mu_);
    return inner_->Apply(op);
  }

 private:
  std::unique_ptr<Sut> inner_;
  mutable std::shared_mutex mu_;
};

struct Arm {
  const char* id;
  bool coarse;
};

}  // namespace
}  // namespace graphbench

int main(int argc, char** argv) {
  using namespace graphbench;
  std::printf("=== Ablation: epoch-snapshot reads vs coarse RW locking ===\n");

  snb::DatagenOptions scale = bench::ScaleFromFlag(argc, argv);
  scale.update_window = 0.3;  // long stream so the paced writer never idles
  const int64_t persons = bench::FlagInt(argc, argv, "persons", 0);
  if (persons > 0) scale.num_persons = uint32_t(persons);
  const int64_t millis = bench::FlagInt(argc, argv, "millis", 1500);
  const double replay_rate =
      bench::FlagDouble(argc, argv, "replay_rate", 2000.0);

  // Reader-count sweep (--readers=1,4,16). Under- and over-subscribing the
  // machine are both interesting: the coarse arm loses ground in both.
  std::vector<size_t> reader_counts;
  {
    std::string csv = bench::FlagValue(argc, argv, "readers", "1,4,16");
    size_t value = 0;
    bool have = false;
    for (char c : csv + ",") {
      if (c >= '0' && c <= '9') {
        value = value * 10 + size_t(c - '0');
        have = true;
      } else if (c == ',') {
        if (have && value > 0) reader_counts.push_back(value);
        value = 0;
        have = false;
      } else {
        std::fprintf(stderr, "invalid --readers=%s (want e.g. 1,4,16)\n",
                     csv.c_str());
        return 1;
      }
    }
  }

  // One SUT per converted engine family: native adjacency (Cypher), LSM
  // KV (Titan-C), and the delta-CSR matrix engine. --suts=CSV overrides.
  std::vector<SutKind> kinds;
  {
    std::string csv =
        bench::FlagValue(argc, argv, "suts", "neo4j,titan-c,matrix");
    std::string token;
    for (char c : csv + ",") {
      if (c != ',') {
        token += c;
        continue;
      }
      if (token.empty()) continue;
      Result<SutKind> kind = ParseSutKind(token);
      if (!kind.ok()) {
        std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
        return 1;
      }
      kinds.push_back(*kind);
      token.clear();
    }
  }

  snb::Dataset data = snb::Generate(scale);
  std::printf("dataset: %llu vertices, %llu edges, %zu update ops\n\n",
              (unsigned long long)data.VertexCount(),
              (unsigned long long)data.EdgeCount(),
              data.update_stream.size());

  const Arm kArms[] = {{"coarse-lock", true}, {"epoch-snapshot", false}};
  const double kWriteRates[] = {0.0, replay_rate};

  TablePrinter table("MVCC ablation — reader throughput under write load, " +
                     bench::ScaleName(scale));
  table.SetHeader({"System", "Arm", "Readers", "Writes/s", "Reads/s",
                   "Read p99 (ms)"});

  obs::BenchReport report("ablation_mvcc", bench::ScaleName(scale));
  report.SetParam("run_millis", Json::Int(millis));
  report.SetParam("replay_rate", Json::Int(int64_t(replay_rate)));
  report.SetParam("persons", Json::Int(int64_t(scale.num_persons)));

  mq::Broker broker;
  int topic_seq = 0;
  for (SutKind kind : kinds) {
    for (const Arm& arm : kArms) {
      for (size_t readers : reader_counts) {
        for (double rate : kWriteRates) {
          // Fresh SUT per cell: paced runs mutate the store, and the two
          // arms must answer over identical snapshots.
          std::unique_ptr<Sut> sut = MakeSut(kind);
          if (arm.coarse) {
            sut = std::make_unique<CoarseLockSut>(std::move(sut));
          }
          std::string name = sut->name();
          Status load = sut->Load(data);
          if (!load.ok()) {
            table.AddRow({name, arm.id, std::to_string(readers),
                          "load error", load.ToString(), ""});
            continue;
          }
          std::string topic = "mvcc-" + std::to_string(topic_seq++);
          const bool writes = rate > 0;
          if (writes) {
            Status produced =
                InteractiveDriver::ProduceUpdates(&broker, topic, data);
            if (!produced.ok()) {
              table.AddRow({name, arm.id, std::to_string(readers),
                            "produce error", produced.ToString(), ""});
              continue;
            }
          } else {
            // Empty topic: the writer thread finds nothing and idles, so
            // the run measures the pure read side of each arm.
            Status created = broker.CreateTopic(topic, 1);
            if (!created.ok()) {
              table.AddRow({name, arm.id, std::to_string(readers),
                            "topic error", created.ToString(), ""});
              continue;
            }
          }
          DriverOptions options;
          options.num_readers = readers;
          options.run_millis = millis;
          options.two_hop_fraction = 0.25;
          options.replay_updates_per_second = writes ? rate : 0;
          InteractiveDriver driver(sut.get(), &broker, options);
          snb::ParamPools params(data, 55);
          auto metrics = driver.Run(topic, &params);
          if (!metrics.ok()) {
            table.AddRow({name, arm.id, std::to_string(readers),
                          "run error", metrics.status().ToString(), ""});
            continue;
          }
          table.AddRow(
              {name, arm.id, std::to_string(readers),
               StringPrintf("%.0f", metrics->writes_per_second),
               StringPrintf("%.0f", metrics->reads_per_second),
               StringPrintf(
                   "%.2f",
                   metrics->read_latency_micros.Percentile(99) / 1000.0)});
          Json row = Json::Object();
          row.Set("arm", Json::Str(arm.id));
          row.Set("readers", Json::Int(int64_t(readers)));
          row.Set("paced_rate", Json::Int(int64_t(rate)));
          row.Set("reads_per_second",
                  Json::Number(metrics->reads_per_second));
          row.Set("writes_per_second",
                  Json::Number(metrics->writes_per_second));
          row.Set("read_p99_us",
                  Json::Number(metrics->read_latency_micros.Percentile(99)));
          row.Set("read_errors", Json::Int(int64_t(metrics->read_errors)));
          report.AddSystem(SutKindId(kind), std::move(row));
        }
      }
    }
  }
  table.Print();
  std::printf("\ncoarse-lock re-imposes a shared_mutex around every SUT "
              "call (the retired\ndiscipline); epoch-snapshot is the "
              "shipped code — readers pin an epoch and\nnever block on "
              "writers.\n");
  bench::WriteReport(report, argc, argv);
  return 0;
}
