// custom_benchmark: run the interactive driver with your own knobs — pick
// the engine, reader count, query mix, and scale from the command line and
// get the Figure 3-style metrics for that single configuration.
//
//   ./custom_benchmark --engine=virtuoso --readers=8 --millis=2000
//       --twohop=0.3 --persons=2000

#include <cstdio>
#include <cstring>
#include <string>

#include "driver/driver.h"
#include "snb/datagen.h"
#include "sut/sut.h"

using namespace graphbench;

namespace {

std::string Flag(int argc, char** argv, const char* name,
                 const char* fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine = Flag(argc, argv, "engine", "postgres");
  Result<std::unique_ptr<Sut>> made = MakeSut(engine);
  if (!made.ok()) {
    std::printf("%s\n", made.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Sut> sut = std::move(*made);

  snb::DatagenOptions scale;
  scale.num_persons = uint32_t(std::stoul(Flag(argc, argv, "persons",
                                               "1500")));
  scale.seed = 11;
  scale.update_window = 0.25;
  snb::Dataset data = snb::Generate(scale);
  std::printf("engine=%s persons=%u\n", sut->name().c_str(),
              scale.num_persons);
  if (Status s = sut->Load(data); !s.ok()) {
    std::printf("load failed: %s\n", s.ToString().c_str());
    return 1;
  }

  mq::Broker broker;
  if (Status s = InteractiveDriver::ProduceUpdates(&broker, "updates",
                                                   data);
      !s.ok()) {
    std::printf("produce failed: %s\n", s.ToString().c_str());
    return 1;
  }

  DriverOptions options;
  options.num_readers = size_t(std::stoul(Flag(argc, argv, "readers", "4")));
  options.run_millis = std::stoll(Flag(argc, argv, "millis", "2000"));
  options.two_hop_fraction = std::stod(Flag(argc, argv, "twohop", "0.1"));
  InteractiveDriver driver(sut.get(), &broker, options);
  snb::ParamPools params(data, 99);
  auto metrics = driver.Run("updates", &params);
  if (!metrics.ok()) {
    std::printf("run failed: %s\n", metrics.status().ToString().c_str());
    return 1;
  }

  std::printf("\nreads:  %llu ok, %llu errors, %.0f/s\n",
              (unsigned long long)metrics->reads_completed,
              (unsigned long long)metrics->read_errors,
              metrics->reads_per_second);
  std::printf("writes: %llu ok, %llu errors, %.0f/s\n",
              (unsigned long long)metrics->writes_completed,
              (unsigned long long)metrics->write_errors,
              metrics->writes_per_second);
  std::printf("read latency:  %s\n",
              metrics->read_latency_micros.ToString().c_str());
  std::printf("write latency: %s\n",
              metrics->write_latency_micros.ToString().c_str());
  return 0;
}
