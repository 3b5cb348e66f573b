// Ablation 1 (DESIGN.md §5): what does the Gremlin Server layer itself
// cost? Runs the four read queries against the same provider two ways —
// through the server (GraphSON codec + request queue + worker pool) and
// embedded (direct step execution) — isolating the overhead §4.2/§4.4
// attribute to the server. After one warm-up pass of each, every case runs
// kBlocks interleaved server/embedded blocks of --reps calls; the table
// shows the median block mean of each and the median per-block ratio with
// its min-max spread, so one noisy block moves no figure. A profiled pass
// through the server splits that cost into the profiler's rows (serialize, dispatchRequest,
// queue, decodeRequest, steps, encodeResults, awaitResponse, deserialize)
// and checks that they account for the measured Submit time. The binary
// exits 1 when a profiled case lacks the queue or deserialize row.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "obs/profiler.h"
#include "snb/datagen.h"
#include "snb/params.h"
#include "sut/gremlin_sut.h"
#include "util/stopwatch.h"

namespace graphbench {
namespace {

// Wall time of one loop of calls and how many of them succeeded.
struct Run {
  uint64_t micros = 0;
  int ok = 0;
  double MeanMs() const { return ok ? micros / 1000.0 / ok : -1; }
};

constexpr int kBlocks = 5;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Run Repeat(GremlinServer* server, const Traversal& t, bool embedded,
           int reps) {
  Run run;
  Stopwatch clock;
  for (int i = 0; i < reps; ++i) {
    auto r = embedded ? server->SubmitEmbedded(t) : server->Submit(t);
    if (r.ok()) ++run.ok;
  }
  run.micros = clock.ElapsedMicros();
  return run;
}

}  // namespace
}  // namespace graphbench

int main(int argc, char** argv) {
  using namespace graphbench;
  std::printf("=== Ablation: Gremlin Server layer on/off (Neo4j-Gremlin "
              "provider) ===\n");
  int reps = int(bench::FlagInt(argc, argv, "reps", 100));

  snb::Dataset data = snb::Generate(snb::ScaleA());
  std::unique_ptr<GremlinSut> sut = MakeNeo4jGremlinSut();
  if (Status s = sut->Load(data); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  snb::ParamPools params(data, 7);

  TablePrinter table(
      "Gremlin Server vs embedded execution (median block mean, ms)");
  table.SetHeader({"Query", "Via server", "Embedded", "Server overhead",
                   "Overhead min-max"});

  struct QueryCase {
    const char* name;
    Traversal traversal;
  };
  std::vector<QueryCase> cases;
  {
    QueryCase point{"Point lookup", {}};
    point.traversal.V()
        .HasIndexed("Person", "id", Value(params.NextPersonId()))
        .ValueMap({"firstName", "lastName", "gender", "birthday",
                   "browserUsed", "locationIP"});
    cases.push_back(std::move(point));

    QueryCase onehop{"1-hop", {}};
    onehop.traversal.V()
        .HasIndexed("Person", "id", Value(params.NextPersonId()))
        .Both("knows")
        .ValueMap({"id", "firstName", "lastName"});
    cases.push_back(std::move(onehop));

    QueryCase twohop{"2-hop", {}};
    twohop.traversal.V()
        .HasIndexed("Person", "id", Value(params.NextPersonId()))
        .As("p")
        .Both("knows")
        .Both("knows")
        .WhereNeq("p")
        .Dedup()
        .Values("id");
    cases.push_back(std::move(twohop));

    auto [a, b] = params.NextPersonPair();
    QueryCase sp{"Shortest path", {}};
    sp.traversal.V()
        .HasIndexed("Person", "id", Value(a))
        .ShortestPath("knows", "id", Value(b));
    cases.push_back(std::move(sp));
  }

  obs::BenchReport report("ablation_gremlin_server", "SF-A (SF3 analog)");
  report.SetParam("reps", Json::Int(reps));
  report.SetParam("blocks", Json::Int(kBlocks));

  GremlinServer* server = sut->server();
  bool rows_missing = false;
  for (const QueryCase& c : cases) {
    Repeat(server, c.traversal, false, reps);  // warm-up, discarded
    Repeat(server, c.traversal, true, reps);
    std::vector<double> via_ms, embedded_ms, ratios;
    for (int b = 0; b < kBlocks; ++b) {
      via_ms.push_back(Repeat(server, c.traversal, false, reps).MeanMs());
      embedded_ms.push_back(Repeat(server, c.traversal, true, reps).MeanMs());
      if (embedded_ms.back() > 0) {
        ratios.push_back(via_ms.back() / embedded_ms.back());
      }
    }
    const double via_server = Median(via_ms);
    const double embedded = Median(embedded_ms);
    const double ratio = ratios.empty() ? 0 : Median(ratios);
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    table.AddRow({c.name, bench::FormatMillis(via_server),
                  bench::FormatMillis(embedded),
                  ratios.empty() ? "-" : StringPrintf("%.2fx", ratio),
                  ratios.empty() ? "-"
                                 : StringPrintf("%.2f-%.2fx", *lo, *hi)});

    // The profiled pass: its rows' self times should sum to the wall time
    // the stopwatch measured around the same Submits.
    obs::QueryProfile profile;
    Run profiled;
    {
      obs::ProfileScope scope(&profile);
      profiled = Repeat(server, c.traversal, false, reps);
    }
    Json metrics = Json::Object();
    metrics.Set("via_server_ms", Json::Number(via_server));
    metrics.Set("embedded_ms", Json::Number(embedded));
    if (!ratios.empty()) {
      metrics.Set("overhead_ratio", Json::Number(ratio));
      metrics.Set("overhead_ratio_min", Json::Number(*lo));
      metrics.Set("overhead_ratio_max", Json::Number(*hi));
    }
    metrics.Set("profiled_ms", Json::Number(profiled.MeanMs()));
    if (obs::kEnabled) {
      std::printf("\n%s", profile.ToString(c.name).c_str());
      double coverage = double(profile.TotalSelfMicros()) /
                        double(std::max<uint64_t>(profiled.micros, 1));
      std::printf("profile coverage: rows sum to %.1f%% of measured Submit "
                  "time (%s)\n", 100.0 * coverage,
                  coverage > 0.9 && coverage < 1.1 ? "ok" : "OUT OF BOUNDS");
      metrics.Set("profile_coverage", Json::Number(coverage));
      for (const char* row : {"queue", "deserialize"}) {
        if (profile.Find(row) != nullptr) continue;
        std::fprintf(stderr, "%s: no %s row in the server profile\n",
                     c.name, row);
        rows_missing = true;
      }
    }
    metrics.Set("profile", obs::ProfileJson(profile));
    report.AddSystem(c.name, std::move(metrics));
  }
  std::printf("\n");
  table.Print();

  bench::WriteReport(report, argc, argv);
  return rows_missing ? 1 : 0;
}
