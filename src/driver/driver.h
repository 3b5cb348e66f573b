#ifndef GRAPHBENCH_DRIVER_DRIVER_H_
#define GRAPHBENCH_DRIVER_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "mq/broker.h"
#include "obs/slowlog.h"
#include "snb/params.h"
#include "snb/schema.h"
#include "sut/sut.h"
#include "util/histogram.h"

namespace graphbench {

/// Configuration of the real-time interactive workload run (§4.3): N
/// concurrent readers execute the modified query mix while one writer
/// consumes the Kafka-analog update stream and applies it to the SUT.
struct DriverOptions {
  size_t num_readers = 8;
  /// Wall-clock measurement window in milliseconds.
  int64_t run_millis = 2000;
  uint64_t seed = 1234;

  /// The modified §4.3 mix: the 2-hop neighbourhood complex query plus
  /// short reads (profile lookup, friends, recent posts). Fractions sum
  /// to <= 1; the remainder falls to point lookups.
  double two_hop_fraction = 0.10;
  double one_hop_fraction = 0.25;
  double recent_posts_fraction = 0.20;

  int64_t recent_posts_limit = 10;

  /// Per-bucket width of the throughput timeline (Figure 3's x-axis
  /// granularity; exposes checkpoint-induced write dips).
  int64_t timeline_bucket_millis = 100;

  /// Schedule-based execution (§2.2): when > 0, the writer paces updates
  /// so that `replay_updates_per_second` are *due* per wall-clock second
  /// (an op never executes before its scheduled slot), testing whether the
  /// SUT sustains a pre-set transaction rate. 0 = drain as fast as
  /// possible (the Figure 3 max-throughput mode).
  double replay_updates_per_second = 0;

  /// Slow-query log: when > 0, every read is profiled and those at or
  /// above this latency (micros) are captured — query kind, parameter
  /// digest, latency, per-operator profile — into
  /// DriverMetrics::slow_queries, keeping the `slowlog_capacity` worst.
  /// 0 disables capture (and its profiling overhead) entirely.
  uint64_t slowlog_threshold_micros = 0;
  size_t slowlog_capacity = 16;
};

/// Results of one driver run.
struct DriverMetrics {
  uint64_t reads_completed = 0;
  uint64_t read_errors = 0;    // e.g. Gremlin Server Busy rejections
  uint64_t writes_completed = 0;
  uint64_t write_errors = 0;
  uint64_t dependency_violations = 0;  // ops seen before their deps
  /// Paced mode: ops that executed more than one bucket after their due
  /// time (the SUT fell behind the pre-set rate).
  uint64_t late_writes = 0;
  double elapsed_seconds = 0;
  double write_seconds = 0;  // time the writer was actively draining

  double reads_per_second = 0;
  double writes_per_second = 0;

  /// Service latency of successful ops only, so fast failures (e.g. a
  /// ~3 us Gremlin Busy rejection) never pose as fast successes.
  Histogram read_latency_micros;
  Histogram write_latency_micros;
  /// Service latency of failed ops (read_errors / write_errors).
  Histogram read_error_latency_micros;
  Histogram write_error_latency_micros;
  /// Paced mode only: write latency measured from each op's *scheduled*
  /// slot rather than its actual start (LDBC-style schedule-aware
  /// latency). Includes the time an op queued behind schedule, so a SUT
  /// that falls behind shows honest overload latency instead of the
  /// coordinated-omission-friendly service latency above. Empty when
  /// replay_updates_per_second == 0.
  Histogram write_schedule_latency_micros;

  /// Bucket width (millis) backing the timelines below.
  int64_t timeline_bucket_millis = 0;
  /// Writes completed per timeline bucket (Figure 3 dips).
  std::vector<uint64_t> write_timeline;
  /// Reads completed per timeline bucket.
  std::vector<uint64_t> read_timeline;

  /// The run's worst reads at or above DriverOptions::
  /// slowlog_threshold_micros, worst first (empty when disabled).
  std::vector<obs::SlowQueryEntry> slow_queries;
};

/// The benchmark driver of Figure 1, minus the data generator: produces
/// the update stream into a broker topic and runs readers + the single
/// writer against a loaded SUT.
class InteractiveDriver {
 public:
  InteractiveDriver(Sut* sut, mq::Broker* broker, DriverOptions options);

  /// Publishes the dataset's update stream to `topic` (creating it), in
  /// scheduled order — the LDBC-driver-side of the Kafka integration.
  static Status ProduceUpdates(mq::Broker* broker, std::string_view topic,
                               const snb::Dataset& data);

  /// Runs the interactive workload: `options.num_readers` reader threads
  /// over the query mix plus one writer consuming `topic`. Returns the
  /// collected metrics.
  Result<DriverMetrics> Run(std::string_view topic, snb::ParamPools* params);

 private:
  Sut* sut_;
  mq::Broker* broker_;
  DriverOptions options_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_DRIVER_DRIVER_H_
