#include "driver/driver.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/slowlog.h"
#include "snb/update_codec.h"
#include "util/string_util.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace graphbench {

InteractiveDriver::InteractiveDriver(Sut* sut, mq::Broker* broker,
                                     DriverOptions options)
    : sut_(sut), broker_(broker), options_(options) {}

Status InteractiveDriver::ProduceUpdates(mq::Broker* broker,
                                         std::string_view topic,
                                         const snb::Dataset& data) {
  // Single partition preserves the scheduled order end-to-end, which is
  // what makes timestamp-order replay dependency-safe.
  Status s = broker->CreateTopic(topic, 1);
  if (!s.ok() && !s.IsAlreadyExists()) return s;
  mq::Producer producer(broker, std::string(topic));
  for (const snb::UpdateOp& op : data.update_stream) {
    GB_RETURN_IF_ERROR(
        producer.Send("", snb::EncodeUpdate(op), op.scheduled_date)
            .status());
  }
  return Status::OK();
}

Result<DriverMetrics> InteractiveDriver::Run(std::string_view topic,
                                             snb::ParamPools* params) {
  DriverMetrics metrics;
  const size_t buckets =
      size_t(options_.run_millis / options_.timeline_bucket_millis) + 2;
  metrics.write_timeline.assign(buckets, 0);
  metrics.read_timeline.assign(buckets, 0);

  std::atomic<bool> stop{false};
  uint64_t writes = 0, write_errors = 0, dep_violations = 0, late = 0;

  Stopwatch run_clock;
  auto bucket_of = [&](uint64_t micros) {
    size_t b = size_t(int64_t(micros / 1000) /
                      options_.timeline_bucket_millis);
    return std::min(b, buckets - 1);
  };

  obs::Gauge* obs_lag =
      obs::MetricsRegistry::Default().GetGauge("mq.consumer.lag");

  // --- The single writer: drain the Kafka queue into the SUT -----------
  // The writer owns the write-side fields of `metrics` and the counts
  // above; they are read only after it joins.
  uint64_t write_micros_active = 0;
  std::thread writer([&] {
    mq::Consumer consumer(broker_, std::string(topic));
    // Paced mode: op k is due at k / rate seconds into the run.
    const double pace = options_.replay_updates_per_second;
    uint64_t op_index = 0;
    // Dependency tracking: ops arrive in scheduled order; the watermark
    // is the latest scheduled_date already applied. An op whose
    // dependency_date exceeds the watermark would have run before its
    // dependencies — counted (it cannot happen with a single ordered
    // partition, but the check is the driver's §2.2 contract).
    int64_t watermark = 0;
    Stopwatch writer_clock;
    for (;;) {
      auto batch = consumer.Poll(64);
      if (!batch.ok()) break;
      obs_lag->Set(int64_t(consumer.Lag()));
      if (batch->empty()) {
        if (stop.load() || consumer.Lag() == 0) break;
        std::this_thread::yield();
        continue;
      }
      for (const mq::Message& m : *batch) {
        auto op = snb::DecodeUpdate(m.payload);
        if (!op.ok()) {
          ++write_errors;
          continue;
        }
        if (op->dependency_date > watermark &&
            op->dependency_date > 0) {
          // Dependency not yet satisfied by an applied op; with ordered
          // replay this means the dependency is in the static snapshot
          // (fine) or missing (violation). Snapshot deps have dates
          // before the stream's first op.
          if (op->dependency_date >= op->scheduled_date) {
            ++dep_violations;
          }
        }
        uint64_t due_us = 0;
        if (pace > 0) {
          due_us = uint64_t(double(op_index) / pace * 1e6);
          uint64_t now_us = run_clock.ElapsedMicros();
          if (now_us < due_us) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(due_us - now_us));
          } else if (now_us > due_us + uint64_t(options_
                                                    .timeline_bucket_millis) *
                                           1000) {
            ++late;  // the SUT fell behind the pre-set rate
          }
        }
        ++op_index;
        const uint64_t start_us = run_clock.ElapsedMicros();
        Status s = sut_->Apply(*op);
        const uint64_t end_us = run_clock.ElapsedMicros();
        const uint64_t us = end_us - start_us;
        if (pace > 0) {
          // Schedule-aware latency (the LDBC driver's definition):
          // completion relative to the op's scheduled slot, not its actual
          // start. When the writer falls behind, the queueing delay counts
          // — avoiding coordinated omission in overload reporting.
          metrics.write_schedule_latency_micros.Add(
              end_us > due_us ? end_us - due_us : 0);
        }
        if (s.ok()) {
          metrics.write_latency_micros.Add(us);
          ++writes;
          watermark = std::max(watermark, op->scheduled_date);
          ++metrics.write_timeline[bucket_of(end_us)];
        } else {
          metrics.write_error_latency_micros.Add(us);
          ++write_errors;
        }
        if (stop.load()) break;
      }
      if (stop.load()) break;
    }
    write_micros_active = writer_clock.ElapsedMicros();
  });

  // --- Concurrent readers over the modified query mix -------------------
  // Slow-query capture: when enabled, every read runs under a ProfileScope
  // so the per-operator breakdown of an offending query is available at
  // the moment it crosses the threshold.
  obs::SlowQueryLog slowlog(options_.slowlog_capacity,
                            options_.slowlog_threshold_micros);
  const bool slowlog_enabled =
      obs::kEnabled && options_.slowlog_threshold_micros > 0;

  // Each reader records into its own cache-line-aligned tally, merged
  // after the join, so readers share no lock and write no shared line.
  struct alignas(64) ReaderTally {
    Histogram ok_micros;
    Histogram error_micros;
    std::vector<uint64_t> timeline;
  };
  std::vector<ReaderTally> tallies(options_.num_readers);
  std::vector<std::thread> readers;
  readers.reserve(options_.num_readers);
  for (size_t r = 0; r < options_.num_readers; ++r) {
    readers.emplace_back([&, r] {
      ReaderTally& tally = tallies[r];
      tally.timeline.assign(buckets, 0);
      snb::ParamPools local(*params);  // independent deterministic stream
      Rng mix_rng(options_.seed + r * 7919);
      obs::QueryProfile profile;
      while (!stop.load()) {
        double roll = mix_rng.NextDouble();
        const char* kind;
        int64_t person = 0;
        const uint64_t start_us = run_clock.ElapsedMicros();
        Status s;
        {
          obs::ProfileScope scope(slowlog_enabled ? &profile : nullptr);
          if (roll < options_.two_hop_fraction) {
            kind = "two_hop";
            person = local.NextPersonId();
            s = sut_->TwoHop(person).status();
          } else if (roll <
                     options_.two_hop_fraction + options_.one_hop_fraction) {
            kind = "one_hop";
            person = local.NextPersonId();
            s = sut_->OneHop(person).status();
          } else if (roll < options_.two_hop_fraction +
                                options_.one_hop_fraction +
                                options_.recent_posts_fraction) {
            kind = "recent_posts";
            person = local.NextPersonId();
            s = sut_->RecentPosts(person, options_.recent_posts_limit)
                    .status();
          } else {
            kind = "point_lookup";
            person = local.NextPersonId();
            s = sut_->PointLookup(person).status();
          }
        }
        const uint64_t end_us = run_clock.ElapsedMicros();
        const uint64_t us = end_us - start_us;
        if (slowlog_enabled) {
          if (us >= options_.slowlog_threshold_micros) {
            slowlog.Record(kind, sut_->StatementText(kind),
                           StringPrintf("person_id=%lld",
                                        (long long)person),
                           us, std::move(profile));
            profile = obs::QueryProfile();
          } else {
            profile.Clear();
          }
        }
        if (s.ok()) {
          tally.ok_micros.Add(us);
          ++tally.timeline[bucket_of(end_us)];
        } else {
          tally.error_micros.Add(us);
        }
      }
    });
  }

  std::this_thread::sleep_for(
      std::chrono::milliseconds(options_.run_millis));
  stop = true;
  for (auto& t : readers) t.join();
  writer.join();
  metrics.elapsed_seconds = run_clock.ElapsedSeconds();
  for (const ReaderTally& tally : tallies) {
    metrics.read_latency_micros.Merge(tally.ok_micros);
    metrics.read_error_latency_micros.Merge(tally.error_micros);
    for (size_t b = 0; b < buckets; ++b) {
      metrics.read_timeline[b] += tally.timeline[b];
    }
  }

  metrics.timeline_bucket_millis = options_.timeline_bucket_millis;
  metrics.slow_queries = slowlog.TakeEntries();
  metrics.reads_completed = metrics.read_latency_micros.count();
  metrics.read_errors = metrics.read_error_latency_micros.count();
  metrics.writes_completed = writes;
  metrics.write_errors = write_errors;
  metrics.dependency_violations = dep_violations;
  metrics.late_writes = late;
  metrics.write_seconds = double(write_micros_active) / 1e6;
  metrics.reads_per_second =
      metrics.elapsed_seconds > 0
          ? double(metrics.reads_completed) / metrics.elapsed_seconds
          : 0;
  // Writes are bounded by the stream length; rate over active drain time.
  metrics.writes_per_second =
      metrics.write_seconds > 0
          ? double(metrics.writes_completed) / metrics.write_seconds
          : 0;
  return metrics;
}

}  // namespace graphbench
