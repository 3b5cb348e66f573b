// Reproduces the §4.4 roadblock: under the ORIGINAL LDBC-style query mix —
// heavy on complex queries (2-hop neighbourhoods and shortest paths) — and
// many concurrent clients, the Gremlin Server cannot keep up: its request
// queue fills and submissions fail (the real server hangs and eventually
// crashes; ours degrades to Busy errors the driver counts). The native
// interfaces process the same mix without errors, which is why the paper
// had to switch Figure 3 to a reduced mix.

#include <cstdio>

#include "bench_common.h"
#include "driver/driver.h"
#include "snb/datagen.h"
#include "sut/gremlin_sut.h"
#include "sut/sut.h"

namespace graphbench {
namespace {

/// Sut wrapper turning the driver's "two-hop" slot into a coin-flip
/// between 2-hop and shortest path — the complex half of the original mix.
class ComplexMixSut : public Sut {
 public:
  explicit ComplexMixSut(std::unique_ptr<Sut> inner)
      : Sut(inner->kind(), Facade::kForward), inner_(std::move(inner)) {}

  uint64_t SizeBytes() const override { return inner_->SizeBytes(); }

 protected:
  Status DoLoad(const snb::Dataset& data) override {
    pair_pool_.clear();
    for (const auto& k : data.knows) {
      pair_pool_.push_back({k.person1, k.person2});
      if (pair_pool_.size() >= 512) break;
    }
    return inner_->Load(data);
  }
  Result<QueryResult> DoPointLookup(int64_t id) override {
    return inner_->PointLookup(id);
  }
  Result<QueryResult> DoOneHop(int64_t id) override {
    return inner_->OneHop(id);
  }
  Result<QueryResult> DoTwoHop(int64_t id) override {
    // Half the complex slots become shortest paths between far-apart
    // endpoints (id pairs drawn from the knows pool, shifted).
    if (!pair_pool_.empty() && (++flip_ & 1)) {
      auto [a, b] = pair_pool_[size_t(flip_) % pair_pool_.size()];
      auto [c, d] =
          pair_pool_[size_t(flip_ * 7919) % pair_pool_.size()];
      (void)d;
      GB_RETURN_IF_ERROR(inner_->ShortestPathLen(a, c).status());
      return QueryResult{};
    }
    return inner_->TwoHop(id);
  }
  Result<int> DoShortestPathLen(int64_t a, int64_t b) override {
    return inner_->ShortestPathLen(a, b);
  }
  Result<QueryResult> DoRecentPosts(int64_t id, int64_t limit) override {
    return inner_->RecentPosts(id, limit);
  }
  Result<QueryResult> DoFriendsWithName(
      int64_t id, const std::string& first_name) override {
    return inner_->FriendsWithName(id, first_name);
  }
  Result<QueryResult> DoRepliesOfPost(int64_t post_id) override {
    return inner_->RepliesOfPost(post_id);
  }
  Result<QueryResult> DoTopPosters(int64_t limit) override {
    return inner_->TopPosters(limit);
  }
  Status DoApply(const snb::UpdateOp& op) override {
    return inner_->Apply(op);
  }

 private:
  std::unique_ptr<Sut> inner_;
  std::vector<std::pair<int64_t, int64_t>> pair_pool_;
  std::atomic<uint64_t> flip_{0};
};

std::unique_ptr<Sut> MakeOverloadSut(SutKind kind) {
  // A realistically provisioned Gremlin Server: few workers, bounded
  // queue. Native interfaces have no such layer.
  GremlinServerOptions server;
  server.workers = 2;
  server.max_queue = 8;
  switch (kind) {
    case SutKind::kNeo4jGremlin:
      return std::make_unique<ComplexMixSut>(MakeNeo4jGremlinSut(server));
    case SutKind::kTitanC:
      return std::make_unique<ComplexMixSut>(MakeTitanCSut(server));
    case SutKind::kTitanB:
      return std::make_unique<ComplexMixSut>(MakeTitanBSut(server));
    case SutKind::kSqlg:
      return std::make_unique<ComplexMixSut>(MakeSqlgSut(server));
    default:
      return std::make_unique<ComplexMixSut>(MakeSut(kind));
  }
}

}  // namespace
}  // namespace graphbench

int main(int argc, char** argv) {
  using namespace graphbench;
  std::printf("=== §4.4: original complex mix under high concurrency ===\n");
  snb::DatagenOptions scale = snb::ScaleA();
  // Smoke mode for CI: --persons overrides the scale to a tiny graph.
  const int64_t persons = bench::FlagInt(argc, argv, "persons", 0);
  if (persons > 0) scale.num_persons = uint32_t(persons);
  snb::Dataset data = snb::Generate(scale);

  DriverOptions options;
  options.num_readers = size_t(bench::FlagInt(argc, argv, "readers", 24));
  options.run_millis = bench::FlagInt(argc, argv, "millis", 1500);
  options.two_hop_fraction = 0.5;  // the original, complex-heavy mix
  options.one_hop_fraction = 0.2;
  options.recent_posts_fraction = 0.1;
  // Paced replay makes write latency schedule-aware (measured from each
  // op's scheduled slot), so overload shows up as latency instead of being
  // hidden by coordinated omission.
  options.replay_updates_per_second =
      bench::FlagDouble(argc, argv, "replay_rate", 2000);
  options.slowlog_threshold_micros =
      uint64_t(bench::FlagInt(argc, argv, "slowlog_threshold_us", 0));
  std::printf("readers=%zu, complex fraction=%.0f%% (2-hop + shortest "
              "path), replay rate=%.0f updates/s\n\n",
              options.num_readers, options.two_hop_fraction * 100,
              options.replay_updates_per_second);

  TablePrinter table("Original-mix overload: completed vs rejected reads");
  table.SetHeader({"System", "Reads ok", "Reads rejected", "Rejection %",
                   "Write p99 (ms)", "Sched p99 (ms)"});

  obs::BenchReport report("sec44_overload", "SF-A (SF3 analog)");
  report.SetParam("readers", Json::Int(int64_t(options.num_readers)));
  report.SetParam("run_millis", Json::Int(options.run_millis));
  report.SetParam("two_hop_fraction", Json::Number(options.two_hop_fraction));
  report.SetParam("replay_rate",
                  Json::Number(options.replay_updates_per_second));
  report.SetParam("slowlog_threshold_us",
                  Json::Int(int64_t(options.slowlog_threshold_micros)));
  report.SetParam("persons", Json::Int(int64_t(scale.num_persons)));

  mq::Broker broker;
  for (SutKind kind : AllSutKinds()) {
    std::unique_ptr<Sut> sut = MakeOverloadSut(kind);
    if (Status s = sut->Load(data); !s.ok()) {
      table.AddRow({sut->name(), "load error", s.ToString(), "", "", ""});
      continue;
    }
    std::string topic = "ov-" + std::to_string(int(kind));
    InteractiveDriver::ProduceUpdates(&broker, topic, data).ok();
    InteractiveDriver driver(sut.get(), &broker, options);
    snb::ParamPools params(data, 17);
    auto metrics = driver.Run(topic, &params);
    if (!metrics.ok()) {
      table.AddRow({sut->name(), "run error",
                    metrics.status().ToString(), "", "", ""});
      continue;
    }
    double total =
        double(metrics->reads_completed + metrics->read_errors);
    table.AddRow({sut->name(),
                  std::to_string(metrics->reads_completed),
                  std::to_string(metrics->read_errors),
                  total > 0 ? StringPrintf("%.1f%%",
                                           100.0 * metrics->read_errors /
                                               total)
                            : "-",
                  StringPrintf("%.2f",
                               metrics->write_latency_micros.Percentile(
                                   99) / 1000.0),
                  StringPrintf("%.2f",
                               metrics->write_schedule_latency_micros
                                       .Percentile(99) /
                                   1000.0)});
    Json system = obs::DriverMetricsJson(*metrics);
    system.Set("rejection_rate",
               Json::Number(total > 0 ? metrics->read_errors / total : 0));
    report.AddSystem(sut->name(), std::move(system));
  }
  table.Print();
  std::printf("\nExpected shape: only the Gremlin Server systems reject "
              "requests; native interfaces complete the mix. The schedule "
              "p99 includes time an update spent queued past its slot.\n");
  bench::WriteReport(report, argc, argv);
  return 0;
}
