// Micro-benchmarks of the substrate itself (google-benchmark): event-queue
// throughput, coroutine scheduling, DSP/codec kernels, and a full scenario.
// The kernel layer is covered piece by piece: queue schedule/drain, callback
// schedule/cancel/drain, the heap-vs-calendar ordering at fleet population,
// Delay resumes, Signal ping-pong and SimMutex hand-off.
#include <benchmark/benchmark.h>

#include "codecs/jpeg/jpeg_decoder.h"
#include "codecs/jpeg/jpeg_encoder.h"
#include "core/scenario_runner.h"
#include "dsp/dtw.h"
#include "dsp/fft.h"
#include "dsp/pan_tompkins.h"
#include "sim/random.h"
#include "sim/simulator.h"

using namespace iotsim;

namespace {

void BM_EventQueueScheduleDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(sim::SimTime::from_ns(static_cast<std::int64_t>((i * 7919) % 100000)), [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleDrain)->Arg(1000)->Arg(100000);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Signal ping, pong;
    auto a = [&]() -> sim::Task<void> {
      for (int i = 0; i < 1000; ++i) {
        ping.notify_all();
        co_await pong.wait();
      }
    };
    auto b = [&]() -> sim::Task<void> {
      for (int i = 0; i < 1000; ++i) {
        co_await ping.wait();
        pong.notify_all();
      }
    };
    sim.spawn(b());
    sim.spawn(a());
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_CoroutinePingPong);

void BM_DelayResume(benchmark::State& state) {
  constexpr int kTasks = 16;
  constexpr int kDelays = 1000;
  for (auto _ : state) {
    sim::Simulator sim;
    auto sleeper = [](int stride) -> sim::Task<void> {
      for (int i = 0; i < kDelays; ++i) co_await sim::Delay{sim::Duration::us(stride)};
    };
    for (int t = 0; t < kTasks; ++t) sim.spawn(sleeper(1 + t % 4));
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTasks * kDelays);
}
BENCHMARK(BM_DelayResume);

void BM_CallbackScheduleCancelDrain(benchmark::State& state) {
  constexpr std::size_t kEvents = 1000;
  std::vector<sim::EventId> ids(kEvents);
  for (auto _ : state) {
    sim::EventQueue q;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
      ids[i] = q.schedule(sim::SimTime::from_ns(static_cast<std::int64_t>((i * 7919) % 100000)),
                          [&fired, i] { fired += i; });
    }
    for (std::size_t i = 0; i < kEvents; i += 3) q.cancel(ids[i]);
    while (!q.empty()) q.pop().callback();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_CallbackScheduleCancelDrain);

void BM_SimMutexHandoff(benchmark::State& state) {
  constexpr int kTasks = 8;
  constexpr int kRounds = 500;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::SimMutex cpu;
    auto worker = [&]() -> sim::Task<void> {
      for (int i = 0; i < kRounds; ++i) {
        co_await cpu.acquire();
        co_await sim::Delay{sim::Duration::us(1)};
        cpu.release();
      }
    };
    for (int t = 0; t < kTasks; ++t) sim.spawn(worker());
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTasks * kRounds);
}
BENCHMARK(BM_SimMutexHandoff);

/// One follow-up lead time (event time minus now) from the log2 histogram
/// of every lead time a 480-hub BCOM fleet's single kernel scheduled over
/// one window (6.2 M events): uniform within the bucket, buckets weighted
/// by their counts. Zero leads are same-time wakeups.
sim::Duration fleet_lead_time(sim::Rng& rng) {
  struct Bucket {
    std::int64_t lo_ns, hi_ns;
    double count;
  };
  static constexpr Bucket kBuckets[] = {
      {0, 0, 1754400},           {2048, 4095, 1033760},         {4096, 8191, 960},
      {65536, 131071, 2228640},  {131072, 262143, 77440},       {262144, 524287, 2880},
      {524288, 1048575, 1017920}, {1048576, 2097151, 800},      {2097152, 4194303, 64960},
      {8388608, 16777215, 960},  {16777216, 33554431, 6560},    {33554432, 67108863, 10400},
      {67108864, 134217727, 2880}, {134217728, 268435455, 480},
  };
  double total = 0.0;
  for (const Bucket& b : kBuckets) total += b.count;
  double pick = rng.uniform() * total;
  for (const Bucket& b : kBuckets) {
    if (pick < b.count) return sim::Duration::ns(rng.uniform_int(b.lo_ns, b.hi_ns));
    pick -= b.count;
  }
  return sim::Duration::zero();
}

// Heap vs calendar at a fleet's live population (a 480-hub BCOM fleet on
// one kernel peaks at about 4320 pending events): a hold model that pops
// the minimum and schedules one follow-up, with lead times drawn from that
// fleet's observed mix (fleet_lead_time). Arg 0 pins the binary heap, 1
// the calendar queue.
void BM_SchedulerHoldAtFleetPopulation(benchmark::State& state) {
  constexpr std::size_t kLive = 4320;
  constexpr std::size_t kHolds = 100'000;
  const auto kind =
      state.range(0) == 0 ? sim::SchedulerKind::kBinaryHeap : sim::SchedulerKind::kCalendar;
  sim::Rng rng{11};
  std::vector<sim::Duration> leads(4096);
  for (auto& d : leads) d = fleet_lead_time(rng);
  for (auto _ : state) {
    sim::EventQueue q;
    q.force_scheduler(kind);
    std::size_t next = 0;
    for (std::size_t i = 0; i < kLive; ++i) {
      q.schedule(sim::SimTime::origin() + leads[next++ % leads.size()], [] {});
    }
    for (std::size_t i = 0; i < kHolds; ++i) {
      const auto ev = q.pop();
      q.schedule(ev.time + leads[next++ % leads.size()], [] {});
    }
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kHolds));
}
BENCHMARK(BM_SchedulerHoldAtFleetPopulation)->Arg(0)->Arg(1);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{1};
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) x = {rng.normal(), rng.normal()};
  for (auto _ : state) {
    auto copy = data;
    dsp::fft(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(4096);

void BM_PanTompkins1s(benchmark::State& state) {
  sim::Rng rng{2};
  std::vector<double> ecg(1000);
  for (std::size_t i = 0; i < ecg.size(); ++i) {
    const double t = static_cast<double>(i) / 1000.0;
    ecg[i] = std::exp(-(t - 0.5) * (t - 0.5) / 0.0001) + 0.02 * rng.normal();
  }
  for (auto _ : state) {
    auto r = dsp::detect_qrs(ecg, {});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PanTompkins1s);

void BM_JpegRoundTrip(benchmark::State& state) {
  auto img = codecs::jpeg::Image::allocate(320, 240);
  sim::Rng rng{3};
  for (auto& b : img.rgb) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    const auto jpeg = codecs::jpeg::encode(img, codecs::jpeg::EncoderConfig{80});
    auto decoded = codecs::jpeg::decode(jpeg);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_JpegRoundTrip);

void BM_DtwMatch(benchmark::State& state) {
  sim::Rng rng{4};
  dsp::FeatureSeq a, b;
  for (int i = 0; i < 60; ++i) {
    a.push_back({rng.normal(), rng.normal(), rng.normal()});
    b.push_back({rng.normal(), rng.normal(), rng.normal()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::dtw_distance(a, b));
  }
}
BENCHMARK(BM_DtwMatch);

void BM_ScenarioStepCounterBaseline(benchmark::State& state) {
  for (auto _ : state) {
    core::Scenario sc;
    sc.app_ids = {apps::AppId::kA2StepCounter};
    sc.scheme = core::Scheme::kBaseline;
    sc.windows = 2;
    auto r = core::run_scenario(sc);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ScenarioStepCounterBaseline);

}  // namespace

BENCHMARK_MAIN();
