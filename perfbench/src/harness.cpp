#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "reading.hpp"

namespace perfbench {
namespace {

/// Warm-up before the measured span: lets allocators, caches and the
/// channels' RTT estimators settle.
double warm_seconds(double run_seconds) {
  return std::min(1.0, run_seconds / 5);
}

/// A drain that has not finished this long after the measured span means
/// readings were lost: the run stops and reports them as failed.
constexpr double kDrainTimeoutS = 20;

}  // namespace

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

Memory memory_now() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so it would report the launching process's footprint.
  Memory m;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return m;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) m.peak = kib / 1024;
    if (std::sscanf(line, "RssAnon: %lf kB", &kib) == 1) m.anon = kib / 1024;
    if (std::sscanf(line, "RssFile: %lf kB", &kib) == 1) m.file = kib / 1024;
    if (std::sscanf(line, "RssShmem: %lf kB", &kib) == 1) m.shmem = kib / 1024;
  }
  std::fclose(f);
  return m;
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : buf_(capacity, 0.0F), rng_(seed) {}

void Reservoir::add(double v) {
  std::uint64_t i = seen_++;
  if (i < buf_.size()) {
    buf_[i] = static_cast<float>(v);
    return;
  }
  rng_ = mix64(rng_);
  std::uint64_t j = rng_ % (i + 1);
  if (j < buf_.size()) buf_[j] = static_cast<float>(v);
}

double Reservoir::quantile(double q) const {
  std::size_t n = std::min<std::uint64_t>(seen_, buf_.size());
  if (n == 0) return 0;
  std::vector<float> sorted(buf_.begin(), buf_.begin() + static_cast<long>(n));
  auto rank = static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank),
                   sorted.end());
  return sorted[rank];
}

Harness::Harness(Options options, std::function<bool()> publish_one)
    : options_(options), publish_one_(std::move(publish_one)) {
  // The latency samples are the benchmark's memory, not the cell's: they
  // are allocated (and touched) before set-up takes its memory baseline.
  slices_.reserve(kSlices);
  for (std::size_t i = 0; i < kSlices; ++i) {
    slices_.emplace_back(0x1a7e5eedULL + i);
  }
}

double Harness::better_quartile(const std::function<double(const Slice&)>& f,
                                bool higher_is_better) const {
  std::vector<double> values;
  for (const Slice& s : slices_) {
    if (s.totals.deliveries > 0) values.push_back(f(s));
  }
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between the order statistics around the rank.
  double rank = (higher_is_better ? 0.75 : 0.25) *
                static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Harness::deliveries_per_s() const {
  return better_quartile(
      [](const Slice& s) {
        return static_cast<double>(s.totals.deliveries) / s.totals.seconds();
      },
      true);
}

double Harness::cpu_us_per_delivery() const {
  return better_quartile(
      [](const Slice& s) {
        return (s.totals.cpu_end - s.totals.cpu_begin) * 1e6 /
               static_cast<double>(s.totals.deliveries);
      },
      false);
}

double Harness::latency_us(double q) const {
  return better_quartile(
      [q](const Slice& s) { return s.latency_us.quantile(q); }, false);
}

std::pair<double, double> Harness::rate_range() const {
  std::pair<double, double> r{0, 0};
  bool first = true;
  for (const Slice& s : slices_) {
    if (s.totals.deliveries == 0) continue;
    double v = static_cast<double>(s.totals.deliveries) / s.totals.seconds();
    r = first ? std::pair{v, v}
              : std::pair{std::min(r.first, v), std::max(r.second, v)};
    first = false;
  }
  return r;
}

void Harness::begin_setup() {
  anon_at_setup_mb_ = memory_now().anon;
  setup_begin_ = Clock::now();
}

double Harness::peak_rss_mb() const {
  // VmHWM less two shares that are not the cell's. The file-backed pages
  // (the code of the binary and its libraries) are resident now as they
  // were at the peak; how many of them are mapped at set-up's start
  // varies by ~70 KiB from run to run with the address-space layout, as
  // fault-around maps 64 KiB-aligned blocks of code. The anonymous memory
  // held when set-up began is the benchmark's own (latency samples, trace
  // state, allocator arenas).
  Memory m = memory_now();
  return m.peak - m.file - m.shmem - anon_at_setup_mb_;
}

void Harness::start() {
  Clock::time_point now = Clock::now();
  setup_s_ = seconds_between(setup_begin_, now);
  warm_end_ = now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            warm_seconds(options_.seconds)));
  auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.seconds));
  end_ = warm_end_ + span;
  split_ = options_.trace ? warm_end_ + span / 2 : end_;
  slice_length_ = (split_ - warm_end_) / static_cast<long>(kSlices);
  abort_at_ = end_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kDrainTimeoutS));
  enter(Phase::kWarm, now);
  top_up();
}

void Harness::enter(Phase next, Clock::time_point now) {
  if (on_phase) on_phase(phase_, next);
  double cpu = (next == Phase::kMeasure || next == Phase::kTraced ||
                phase_ == Phase::kMeasure || phase_ == Phase::kTraced)
                   ? cpu_seconds()
                   : 0;
  if (phase_ == Phase::kMeasure || phase_ == Phase::kTraced) {
    PhaseTotals& t = phase_totals(phase_);
    t.end = now;
    t.cpu_end = cpu;
  }
  if (phase_ == Phase::kMeasure) {
    slices_[slice_].totals.end = now;
    slices_[slice_].totals.cpu_end = cpu;
  }
  if (next == Phase::kMeasure || next == Phase::kTraced) {
    PhaseTotals& t = phase_totals(next);
    t.begin = now;
    t.cpu_begin = cpu;
  }
  if (next == Phase::kMeasure) {
    slice_ = 0;
    slices_[0].totals.begin = now;
    slices_[0].totals.cpu_begin = cpu;
  }
  phase_ = next;
}

void Harness::tick(Clock::time_point now) {
  if (phase_ == Phase::kWarm && now >= warm_end_) enter(Phase::kMeasure, now);
  if (phase_ == Phase::kMeasure && slice_ + 1 < kSlices &&
      now >= warm_end_ + slice_length_ * static_cast<long>(slice_ + 1)) {
    double cpu = cpu_seconds();
    slices_[slice_].totals.end = now;
    slices_[slice_].totals.cpu_end = cpu;
    ++slice_;
    slices_[slice_].totals.begin = now;
    slices_[slice_].totals.cpu_begin = cpu;
  }
  if (phase_ == Phase::kMeasure && options_.trace && now >= split_) {
    enter(Phase::kTraced, now);
  }
  if ((phase_ == Phase::kMeasure || phase_ == Phase::kTraced) &&
      now >= end_) {
    enter(Phase::kDrain, now);
  }
  if (phase_ == Phase::kDrain && outstanding_ > 0 && now >= abort_at_) {
    aborted_ = true;
  }
}

void Harness::delivered(Clock::time_point now, Clock::time_point published,
                        bool latency_sample) {
  tick(now);
  if (phase_ != Phase::kMeasure && phase_ != Phase::kTraced) return;
  ++phase_totals(phase_).deliveries;
  // Slices, and so every end-to-end figure, cover the untraced span only.
  if (phase_ != Phase::kMeasure) return;
  Slice& s = slices_[slice_];
  ++s.totals.deliveries;
  if (latency_sample) {
    s.latency_us.add(
        std::chrono::duration<double, std::micro>(now - published).count());
  }
}

void Harness::completed() {
  --outstanding_;
  top_up();
}

void Harness::top_up() {
  // Iterative, not recursive: a publish may complete synchronously.
  if (topping_up_) return;
  topping_up_ = true;
  while (phase_ != Phase::kDrain && outstanding_ < options_.window) {
    ++outstanding_;
    if (!publish_one_()) {
      --outstanding_;
      break;
    }
  }
  topping_up_ = false;
}

}  // namespace perfbench
