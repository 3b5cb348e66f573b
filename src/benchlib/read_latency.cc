#include "benchlib/read_latency.h"

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "obs/profiler.h"
#include "snb/params.h"
#include "sut/sut.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace graphbench {
namespace benchlib {

namespace {

std::string FormatMs(double ms) {
  if (ms < 0.1) return StringPrintf("%.3f", ms);
  if (ms < 10) return StringPrintf("%.2f", ms);
  return StringPrintf("%.1f", ms);
}

}  // namespace

std::string RunReadLatencyTable(const snb::DatagenOptions& scale,
                                const ReadLatencyOptions& options,
                                const std::string& title,
                                obs::BenchReport* report) {
  snb::Dataset data = snb::Generate(scale);

  struct Loaded {
    std::unique_ptr<Sut> sut;
  };
  std::vector<Loaded> suts;
  for (SutKind kind : AllSutKinds()) {
    Loaded l;
    l.sut = MakeSut(kind, SutOptions{.plan_cache = options.plan_cache});
    Status s = l.sut->Load(data);
    if (!s.ok()) {
      std::fprintf(stderr, "load failed for %s: %s\n",
                   l.sut->name().c_str(), s.ToString().c_str());
      continue;
    }
    suts.push_back(std::move(l));
  }

  TablePrinter table(title);
  std::vector<std::string> header{"Query"};
  for (const auto& l : suts) header.push_back(l.sut->name());
  table.SetHeader(header);

  enum QueryType { kPoint, kOneHop, kTwoHop, kShortestPath };
  const char* kNames[] = {"Point lookup", "1-hop", "2-hop", "Shortest path"};
  const char* kKeys[] = {"point_lookup_ms", "one_hop_ms", "two_hop_ms",
                         "shortest_path_ms"};
  const char* kProfileKeys[] = {"point_lookup", "one_hop", "two_hop",
                                "shortest_path"};
  std::vector<Json> system_metrics(suts.size(), Json::Object());

  struct Profiled {
    obs::QueryProfile profile;
    uint64_t measured_micros = 0;
  };
  // profiles[sut][query type], captured only under options.profile.
  std::vector<std::array<Profiled, 4>> profiles(suts.size());

  for (int qt = kPoint; qt <= kShortestPath; ++qt) {
    std::vector<std::string> row{kNames[qt]};
    std::vector<double> means;
    for (const auto& l : suts) {
      size_t si = size_t(&l - suts.data());
      // Identical deterministic parameter sequence per SUT.
      snb::ParamPools params(data, options.seed);
      obs::ProfileScope scope(options.profile
                                  ? &profiles[si][size_t(qt)].profile
                                  : nullptr);
      Stopwatch total;
      int completed = 0;
      for (int rep = 0; rep < options.repetitions; ++rep) {
        int64_t id = 0;
        int64_t id2 = 0;
        if (qt == kShortestPath) {
          auto [a, b] = params.NextPersonPair();
          id = a;
          id2 = b;
        } else {
          id = params.NextPersonId();
        }
        Status s;
        // Coverage denominator: the SUT call only, excluding harness work
        // (parameter generation above, result teardown after `elapsed` is
        // captured). Clocked only under --profile so the latency table's
        // timed region is untouched.
        uint64_t elapsed = 0;
        uint64_t op_start = options.profile ? NowMicros() : 0;
        switch (qt) {
          case kPoint: {
            auto r = l.sut->PointLookup(id);
            if (options.profile) elapsed = NowMicros() - op_start;
            s = r.status();
            break;
          }
          case kOneHop: {
            auto r = l.sut->OneHop(id);
            if (options.profile) elapsed = NowMicros() - op_start;
            s = r.status();
            break;
          }
          case kTwoHop: {
            auto r = l.sut->TwoHop(id);
            if (options.profile) elapsed = NowMicros() - op_start;
            s = r.status();
            break;
          }
          case kShortestPath: {
            auto r = l.sut->ShortestPathLen(id, id2);
            if (options.profile) elapsed = NowMicros() - op_start;
            s = r.status();
            break;
          }
        }
        if (options.profile) {
          profiles[si][size_t(qt)].measured_micros += elapsed;
        }
        if (s.ok()) ++completed;
      }
      double mean_ms = completed > 0
                           ? total.ElapsedMillis() / double(completed)
                           : -1;
      means.push_back(mean_ms);
      row.push_back(FormatMs(mean_ms));
      system_metrics[si].Set(kKeys[qt], Json::Number(mean_ms));
    }
    table.AddRow(row);

    // Ratio row: each system vs the fastest for this query type.
    double best = -1;
    for (double m : means) {
      if (m >= 0 && (best < 0 || m < best)) best = m;
    }
    std::vector<std::string> ratio{std::string("  vs best")};
    for (double m : means) {
      ratio.push_back(m < 0 || best <= 0
                          ? "-"
                          : StringPrintf("%.1fx", m / best));
    }
    table.AddRow(ratio);
  }

  std::string rendered = table.ToString();

  if (options.profile) {
    for (size_t si = 0; si < suts.size(); ++si) {
      Json profile_json = Json::Object();
      for (int qt = kPoint; qt <= kShortestPath; ++qt) {
        const Profiled& cell = profiles[si][size_t(qt)];
        double coverage =
            cell.measured_micros > 0
                ? 100.0 * double(cell.profile.TotalSelfMicros()) /
                      double(cell.measured_micros)
                : 0;
        rendered += cell.profile.ToString(
            StringPrintf("%s / %s — operator coverage %.1f%% of %.2f ms "
                         "measured",
                         suts[si].sut->name().c_str(), kNames[qt],
                         coverage, double(cell.measured_micros) / 1000.0));
        Json cell_json = obs::ProfileJson(cell.profile);
        cell_json.Set("measured_micros",
                      Json::Int(int64_t(cell.measured_micros)));
        cell_json.Set("coverage_pct", Json::Number(coverage));
        profile_json.Set(kProfileKeys[qt], std::move(cell_json));
      }
      system_metrics[si].Set("profiles", std::move(profile_json));
    }
  }

  if (report != nullptr) {
    report->SetParam("repetitions", Json::Int(options.repetitions));
    report->SetParam("profile", Json::Int(options.profile ? 1 : 0));
    report->SetParam("plan_cache", Json::Int(options.plan_cache ? 1 : 0));
    for (size_t i = 0; i < suts.size(); ++i) {
      if (options.plan_cache) {
        lang::PlanCacheStats stats = suts[i].sut->plan_cache_stats();
        Json cache = Json::Object();
        cache.Set("hits", Json::Int(int64_t(stats.hits)));
        cache.Set("misses", Json::Int(int64_t(stats.misses)));
        cache.Set("evictions", Json::Int(int64_t(stats.evictions)));
        cache.Set("hit_rate", Json::Number(stats.HitRate()));
        system_metrics[i].Set("plan_cache", std::move(cache));
      }
      report->AddSystem(suts[i].sut->name(), std::move(system_metrics[i]));
    }
  }

  std::fputs(rendered.c_str(), stdout);
  std::fflush(stdout);
  return rendered;
}

}  // namespace benchlib
}  // namespace graphbench
