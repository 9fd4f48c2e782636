// Closed-loop harness, phase clock and resource probes shared by every
// workload. Everything here runs on the workload's executor thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// User + system CPU time of the whole process (all threads), in seconds.
[[nodiscard]] double cpu_seconds();

/// Resident memory of the process (/proc/self/status), in MiB.
struct Memory {
  double peak = 0;   ///< VmHWM: largest resident set so far
  double anon = 0;   ///< RssAnon
  double file = 0;   ///< RssFile
  double shmem = 0;  ///< RssShmem
};
[[nodiscard]] Memory memory_now();

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Fixed-size uniform sample of a stream (Vitter's algorithm R). The buffer
/// is allocated and touched up front so the sample never changes the
/// process's memory footprint as throughput changes.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);
  void add(double v);
  /// Nearest-rank quantile of the kept samples (0 when empty).
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<float> buf_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_;
};

/// Measurement phases of one run. Readings are published throughout
/// kWarm..kMeasured; kDrain publishes nothing and waits for the readings
/// still outstanding.
enum class Phase { kSetup, kWarm, kMeasure, kTraced, kDrain };

struct PhaseTotals {
  Clock::time_point begin{};
  Clock::time_point end{};
  double cpu_begin = 0;
  double cpu_end = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t readings = 0;  ///< readings published inside the phase
  [[nodiscard]] double seconds() const { return seconds_between(begin, end); }
};

/// One equal share of the measured span: what the end-to-end metrics are
/// computed from, slice by slice, before taking the better quartile across
/// slices.
struct Slice {
  explicit Slice(std::uint64_t seed) : latency_us(1U << 14, seed) {}
  PhaseTotals totals;
  Reservoir latency_us;
};

/// The closed loop: `window` readings outstanding; a reading is outstanding
/// from its publish until every expected delivery of it has arrived, and
/// the next is published as one completes. Phases advance on wall time:
/// a warm-up (not measured), then the measured span — split into an
/// untraced and a traced half in trace mode — then the drain.
///
/// The untraced measured span is cut into kSlices equal slices. Each
/// end-to-end figure is taken per slice and the better quartile across
/// slices reported (the 75th percentile of rates, the 25th of costs and
/// latencies). Other tenants of the machine only ever slow a slice, and
/// for seconds at a time; the better quartile skips those slices as long
/// as they are fewer than three in four, where the median moved with each
/// of them. A change in the program moves every slice, so it moves the
/// figure all the same.
class Harness {
 public:
  struct Options {
    double seconds = 0;
    bool trace = false;
    std::size_t window = 8;
  };
  /// publish_one publishes one reading; it returns false to publish no
  /// more.
  Harness(Options options, std::function<bool()> publish_one);

  /// Called at every phase boundary, before the new phase starts.
  std::function<void(Phase from, Phase to)> on_phase;

  /// Set-up begins: stamps the clock and the anonymous memory that set-up
  /// and the run are measured from.
  void begin_setup();
  /// Set-up is over: stamps setup time, starts the warm-up and publishes
  /// the first window.
  void start();
  /// Advances phases and slices on wall time; call often (workloads call it
  /// from the executor loop, deliveries call it too).
  void tick(Clock::time_point now);
  /// One member handler invocation the benchmark expected. `published` is
  /// the publish time of its reading; latency is sampled when asked.
  void delivered(Clock::time_point now, Clock::time_point published,
                 bool latency_sample);
  /// One reading received its last expected delivery.
  void completed();
  /// Counts a reading publish into the current phase (publish_one calls it).
  void published() { ++phase_totals(phase_).readings; }

  [[nodiscard]] bool tracing() const { return phase_ == Phase::kTraced; }
  [[nodiscard]] bool done() const {
    return aborted_ || (phase_ == Phase::kDrain && outstanding_ == 0);
  }
  [[nodiscard]] bool aborted() const { return aborted_; }

  [[nodiscard]] double setup_seconds() const { return setup_s_; }
  /// Peak resident memory the cell added over the run (see harness.cpp).
  [[nodiscard]] double peak_rss_mb() const;
  [[nodiscard]] const PhaseTotals& measured() const { return measure_; }
  [[nodiscard]] const PhaseTotals& traced() const { return traced_; }

  /// Deliveries per wall second (better quartile across slices).
  [[nodiscard]] double deliveries_per_s() const;
  /// Process CPU µs per delivery (better quartile across slices).
  [[nodiscard]] double cpu_us_per_delivery() const;
  /// The slice's latency quantile `q` in µs (better quartile across
  /// slices).
  [[nodiscard]] double latency_us(double q) const;
  /// Lowest and highest per-slice delivery rate (for the summary).
  [[nodiscard]] std::pair<double, double> rate_range() const;

  static constexpr std::size_t kSlices = 40;

 private:
  PhaseTotals& phase_totals(Phase p) {
    return p == Phase::kTraced ? traced_ : p == Phase::kMeasure ? measure_
                                                                : other_;
  }
  void enter(Phase next, Clock::time_point now);
  void top_up();
  /// The 75th (higher_is_better) or 25th percentile of `f` over the
  /// slices that saw deliveries.
  [[nodiscard]] double better_quartile(
      const std::function<double(const Slice&)>& f,
      bool higher_is_better) const;

  Options options_;
  std::function<bool()> publish_one_;
  Phase phase_ = Phase::kSetup;
  Clock::time_point warm_end_{};
  Clock::time_point split_{};
  Clock::time_point end_{};
  Clock::time_point abort_at_{};
  std::size_t outstanding_ = 0;
  bool topping_up_ = false;
  bool aborted_ = false;
  Clock::time_point setup_begin_{};
  double anon_at_setup_mb_ = 0;
  double setup_s_ = 0;
  PhaseTotals measure_;
  PhaseTotals traced_;
  PhaseTotals other_;
  Clock::duration slice_length_{};
  std::size_t slice_ = 0;
  std::vector<Slice> slices_;
};

}  // namespace perfbench
