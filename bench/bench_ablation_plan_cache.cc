// Ablation (DESIGN.md §8): plan cache. Every SUT runs the §4.2 read
// types twice — parse-per-call (the paper's methodology, cache off) and
// cached by text (cache on: each statement's one parameterized text is
// parsed once, later calls look the plan up and bind) — isolating how
// much of each stack's read latency is statement translation rather than
// data access. The report embeds the on/off latency pairs and the engine
// cache's hit rate per system.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "lang/plan_cache.h"
#include "snb/params.h"

int main(int argc, char** argv) {
  using namespace graphbench;
  std::printf("=== Ablation: plan cache ===\n");

  snb::DatagenOptions scale = bench::ScaleFromFlag(argc, argv);
  const int reps = int(bench::FlagInt(argc, argv, "reps", 100));
  const uint64_t seed = uint64_t(bench::FlagInt(argc, argv, "seed", 77));
  snb::Dataset data = snb::Generate(scale);

  enum QueryType { kPoint, kOneHop, kTwoHop, kShortestPath };
  const char* kNames[] = {"Point lookup", "1-hop", "2-hop", "Shortest path"};
  const char* kKeys[] = {"point_lookup", "one_hop", "two_hop",
                         "shortest_path"};

  TablePrinter table("Plan-cache ablation — mean read latency in ms, " +
                     bench::ScaleName(scale));
  table.SetHeader({"System", "Query", "Parse/call", "Cached", "Speedup",
                   "Hit rate"});

  obs::BenchReport report("ablation_plan_cache", bench::ScaleName(scale));
  report.SetParam("repetitions", Json::Int(reps));
  report.SetParam("seed", Json::Int(int64_t(seed)));

  for (SutKind kind : AllSutKinds()) {
    // One mean latency per (query type, cache mode).
    double means[4][2] = {};
    lang::PlanCacheStats cache_stats;
    std::string name;
    bool loaded = true;
    for (int mode = 0; mode < 2 && loaded; ++mode) {
      const bool cached = mode == 1;
      std::unique_ptr<Sut> sut =
          MakeSut(kind, SutOptions{.plan_cache = cached});
      name = sut->name();
      Status s = sut->Load(data);
      if (!s.ok()) {
        std::fprintf(stderr, "load failed for %s: %s\n", name.c_str(),
                     s.ToString().c_str());
        loaded = false;
        break;
      }
      for (int qt = kPoint; qt <= kShortestPath; ++qt) {
        // Identical deterministic parameter sequence across modes.
        snb::ParamPools params(data, seed);
        Stopwatch clock;
        int completed = 0;
        for (int rep = 0; rep < reps; ++rep) {
          Status rs;
          switch (qt) {
            case kPoint:
              rs = sut->PointLookup(params.NextPersonId()).status();
              break;
            case kOneHop:
              rs = sut->OneHop(params.NextPersonId()).status();
              break;
            case kTwoHop:
              rs = sut->TwoHop(params.NextPersonId()).status();
              break;
            case kShortestPath: {
              auto [a, b] = params.NextPersonPair();
              rs = sut->ShortestPathLen(a, b).status();
              break;
            }
          }
          if (rs.ok()) ++completed;
        }
        means[qt][mode] =
            completed > 0 ? clock.ElapsedMillis() / double(completed) : -1;
      }
      if (cached) cache_stats = sut->plan_cache_stats();
    }
    if (!loaded) continue;

    Json metrics = Json::Object();
    for (int qt = kPoint; qt <= kShortestPath; ++qt) {
      double off = means[qt][0];
      double on = means[qt][1];
      table.AddRow({qt == kPoint ? name : "", kNames[qt],
                    bench::FormatMillis(off), bench::FormatMillis(on),
                    on > 0 ? StringPrintf("%.2fx", off / on) : "-",
                    qt == kPoint
                        ? StringPrintf("%.1f%%", 100.0 * cache_stats.HitRate())
                        : ""});
      metrics.Set(std::string(kKeys[qt]) + "_off_ms", Json::Number(off));
      metrics.Set(std::string(kKeys[qt]) + "_on_ms", Json::Number(on));
    }
    Json cache = Json::Object();
    cache.Set("hits", Json::Int(int64_t(cache_stats.hits)));
    cache.Set("misses", Json::Int(int64_t(cache_stats.misses)));
    cache.Set("evictions", Json::Int(int64_t(cache_stats.evictions)));
    cache.Set("hit_rate", Json::Number(cache_stats.HitRate()));
    metrics.Set("plan_cache", std::move(cache));
    report.AddSystem(name, std::move(metrics));
  }
  table.Print();
  std::printf("\nExpected shape: the declarative stacks (SQL, Cypher, "
              "SPARQL) gain most on point lookups and 1-hops, where "
              "parse+plan time is a large latency fraction; Gremlin "
              "submissions inline parameters into bytecode, so its "
              "server-side cache only hits on byte-identical requests.\n");
  bench::WriteReport(report, argc, argv);
  return 0;
}
