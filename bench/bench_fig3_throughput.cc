// Reproduces Figure 3: aggregate read and write throughput under the
// real-time interactive workload — N concurrent readers running the
// modified query mix (2-hop complex query + short reads) while a single
// writer drains the Kafka-analog update stream into the SUT.
//
// Also prints the per-bucket write timeline for the two specialized graph
// stores, exposing Neo4j's checkpoint-induced throughput dips vs Titan-C's
// steady drain (§4.3).

#include <cstdio>

#include "bench_common.h"
#include "driver/driver.h"
#include "snb/datagen.h"
#include "storage/durability.h"
#include "sut/cypher_sut.h"
#include "sut/sut.h"

namespace graphbench {
namespace {

std::unique_ptr<Sut> MakeFig3Sut(SutKind kind, bool plan_cache,
                                 const storage::DurabilityOptions& durability) {
  std::unique_ptr<Sut> sut;
  if (kind == SutKind::kNeo4jCypher) {
    // Aggressive checkpointing so the §4.3 write dips land inside the
    // measurement window at this scale. With --durable the dip is a real
    // journal-sync + store-append + fsync instead of the simulated floor.
    NativeGraphOptions options;
    options.checkpoint_interval_writes = 1500;
    options.checkpoint_micros_per_dirty_write = 40;
    options.checkpoint_max_pause_micros = 80000;
    options.durability = durability;
    sut = std::make_unique<CypherSut>(options);
  } else {
    SutOptions options;
    options.durability = durability;
    sut = MakeSut(kind, options);
  }
  if (sut == nullptr) return sut;
  if (plan_cache) sut->EnablePlanCache();
  return sut;
}

std::string Sparkline(const std::vector<uint64_t>& buckets) {
  uint64_t peak = 1;
  for (uint64_t b : buckets) peak = std::max(peak, b);
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string out;
  for (uint64_t b : buckets) {
    out += kLevels[b * 7 / peak];
  }
  return out;
}

}  // namespace
}  // namespace graphbench

int main(int argc, char** argv) {
  using namespace graphbench;
  std::printf("=== Figure 3: read/write throughput, real-time interactive "
              "workload ===\n");

  snb::DatagenOptions scale = snb::ScaleA();
  scale.update_window = 0.3;  // longer stream so the writer stays busy
  snb::Dataset data = snb::Generate(scale);
  std::printf("dataset: %llu vertices, %llu edges, %zu update ops\n",
              (unsigned long long)data.VertexCount(),
              (unsigned long long)data.EdgeCount(),
              data.update_stream.size());

  DriverOptions options;
  options.num_readers = size_t(bench::FlagInt(argc, argv, "readers", 8));
  options.run_millis = bench::FlagInt(argc, argv, "millis", 3000);
  options.slowlog_threshold_micros =
      uint64_t(bench::FlagInt(argc, argv, "slowlog_threshold_us", 0));
  bool plan_cache = bench::FlagBool(argc, argv, "plan_cache", false);
  storage::DurabilityOptions durability;
  durability.enabled = bench::FlagBool(argc, argv, "durable", false);
  durability.dir =
      bench::FlagValue(argc, argv, "durable_dir", "fig3_durable");
  durability.fsync_on_commit =
      bench::FlagBool(argc, argv, "fsync_on_commit", false);
  if (durability.enabled) {
    Status dir_ok =
        storage::ResolveFileSystem(durability)->CreateDir(durability.dir);
    if (!dir_ok.ok()) {
      std::fprintf(stderr, "--durable_dir: %s\n", dir_ok.ToString().c_str());
      return 2;
    }
  }
  std::printf("readers=%zu, window=%lldms (paper: 32 readers on 32 cores; "
              "single-core container measures contention shape)\n\n",
              options.num_readers, (long long)options.run_millis);

  TablePrinter table("Figure 3 analog — aggregate throughput");
  table.SetHeader({"System", "Reads/s", "Writes/s", "Read p99 (ms)",
                   "Write p99 (ms)", "Read errors", "Write errors"});

  obs::BenchReport report("fig3_throughput", bench::ScaleName(scale));
  report.SetParam("readers", Json::Int(int64_t(options.num_readers)));
  report.SetParam("run_millis", Json::Int(options.run_millis));
  report.SetParam("update_ops", Json::Int(int64_t(data.update_stream.size())));
  report.SetParam("timeline_bucket_millis",
                  Json::Int(options.timeline_bucket_millis));
  report.SetParam("slowlog_threshold_us",
                  Json::Int(int64_t(options.slowlog_threshold_micros)));
  report.SetParam("plan_cache", Json::Int(plan_cache ? 1 : 0));
  report.SetParam("durable", Json::Int(durability.enabled ? 1 : 0));
  report.SetParam("fsync_on_commit",
                  Json::Int(durability.fsync_on_commit ? 1 : 0));

  struct Timeline {
    std::string name;
    std::vector<uint64_t> writes;
  };
  std::vector<Timeline> timelines;

  mq::Broker broker;
  for (SutKind kind : AllSutKinds()) {
    std::unique_ptr<Sut> sut = MakeFig3Sut(kind, plan_cache, durability);
    if (sut == nullptr) {
      table.AddRow({SutKindName(kind), "durable open error", "", "", "", "",
                    ""});
      continue;
    }
    Status load = sut->Load(data);
    if (!load.ok()) {
      table.AddRow({sut->name(), "load error", load.ToString(), "", "", "",
                    ""});
      continue;
    }
    std::string topic = "updates-" + std::to_string(int(kind));
    Status produced =
        InteractiveDriver::ProduceUpdates(&broker, topic, data);
    if (!produced.ok()) {
      table.AddRow({sut->name(), "produce error", produced.ToString(), "",
                    "", "", ""});
      continue;
    }
    InteractiveDriver driver(sut.get(), &broker, options);
    snb::ParamPools params(data, 55);
    auto metrics = driver.Run(topic, &params);
    if (!metrics.ok()) {
      table.AddRow({sut->name(), "run error",
                    metrics.status().ToString(), "", "", "", ""});
      continue;
    }
    table.AddRow(
        {sut->name(), StringPrintf("%.0f", metrics->reads_per_second),
         StringPrintf("%.0f", metrics->writes_per_second),
         StringPrintf("%.2f",
                      metrics->read_latency_micros.Percentile(99) / 1000.0),
         StringPrintf("%.2f",
                      metrics->write_latency_micros.Percentile(99) / 1000.0),
         std::to_string(metrics->read_errors),
         std::to_string(metrics->write_errors)});
    report.AddSystem(sut->name(), obs::DriverMetricsJson(*metrics));

    if (kind == SutKind::kNeo4jCypher || kind == SutKind::kTitanC) {
      timelines.push_back(Timeline{sut->name(), metrics->write_timeline});
    }
  }
  table.Print();

  std::printf("\nWrite-throughput timelines (one char per %d ms; Neo4j "
              "shows checkpoint dips, Titan-C drains steadily) "
              "[checkpoints: %s]:\n",
              int(options.timeline_bucket_millis),
              durability.enabled ? "real fsync stalls (--durable)"
                                 : "simulated stall floor");
  for (const auto& t : timelines) {
    std::printf("%-20s |%s|\n", t.name.c_str(),
                Sparkline(t.writes).c_str());
  }
  bench::WriteReport(report, argc, argv);
  return 0;
}
