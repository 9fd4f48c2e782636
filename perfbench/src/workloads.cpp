#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <system_error>

#include "bus/bus_client.hpp"
#include "bus/event_bus.hpp"
#include "checker.hpp"
#include "common/crc32.hpp"
#include "common/sha256.hpp"
#include "harness.hpp"
#include "net/loopback.hpp"
#include "net/udp_transport.hpp"
#include "policy/expr_eval.hpp"
#include "proxy/forwarding_proxy.hpp"
#include "pubsub/codec.hpp"
#include "pubsub/fastforward_matcher.hpp"
#include "reading.hpp"
#include "sim/real_executor.hpp"
#include "sim/sim_executor.hpp"
#include "smc/cell.hpp"
#include "smc/member.hpp"
#include "smc/standby.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using amuse::BusClient;
using amuse::Event;
using amuse::EventBus;
using amuse::Filter;
using amuse::MemberInfo;
using amuse::Op;
using amuse::SmcMember;

const std::string kCellName = "ward";

amuse::Bytes psk() { return amuse::to_bytes("perfbench-cell-key"); }

/// Program counters read at the traced span's boundaries.
struct Counters {
  std::uint64_t tasks = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t acks_delayed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t repl_updates = 0;
  std::uint64_t triggers = 0;
  std::uint64_t recv_datagrams = 0;
  std::uint64_t recv_syscalls = 0;
};

void add_channel(Counters& c, const amuse::ReliableChannelStats& s) {
  c.acks_delayed += s.acks_delayed;
  c.retransmissions += s.retransmissions;
}

void add_proxies(Counters& c, EventBus& bus) {
  for (const MemberInfo& m : bus.members()) {
    if (auto* p = dynamic_cast<amuse::ForwardingProxy*>(bus.proxy_for(m.id))) {
      add_channel(c, p->channel_stats());
    }
  }
}

std::string patient_topic(std::uint32_t patient) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "vitals.p%02u", patient);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::uint64_t all_of(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

volatile std::uint64_t g_sink = 0;

/// Runs `body` (which returns the work units it did) for at least 150 ms
/// and returns nanoseconds per unit.
template <class Body>
double ns_per_unit(Body&& body) {
  std::uint64_t units = 0;
  Clock::time_point begin = Clock::now();
  Clock::time_point now = begin;
  do {
    units += body();
    now = Clock::now();
  } while (now - begin < std::chrono::milliseconds(150));
  return units == 0 ? 0
                    : std::chrono::duration<double, std::nano>(now - begin)
                              .count() /
                          static_cast<double>(units);
}

class Workload {
 public:
  Workload(const RunOptions& options, std::size_t recipients,
           std::size_t senders, std::size_t window)
      : opts_(options),
        checker_(recipients, senders),
        harness_({options.seconds, options.trace, window},
                 [this] { return publish_one(); }) {
    harness_.on_phase = [this](Phase from, Phase to) {
      if (to == Phase::kTraced) {
        before_ = counters();
        trace().on = true;
      }
      if (from == Phase::kTraced) {
        trace().on = false;
        trace().close_routes();
        after_ = counters();
      }
    };
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  RunResult run() {
    // The trace state, like the harness's latency samples, is the
    // benchmark's own memory: it exists before set-up's baseline is taken.
    (void)trace();
    harness_.begin_setup();
    setup();
    if (opts_.trace) bus().set_observer(route_observer());
    drive();
    settle();
    // Taken before the run-end checks, whose own buffers would count.
    peak_rss_mb_ = harness_.peak_rss_mb();
    bus().set_observer({});
    checker_.check(!harness_.aborted(),
                   "readings still outstanding 20 s after the measured span");
    verify();
    checker_.check_count("bus deliveries against member handler invocations",
                         bus().stats().deliveries - bus_deliveries_at_start_,
                         observed_);
    checker_.finish();
    std::string report;
    checker_.check(checker_self_test(&report),
                   "checker self-test: " + report);
    return result();
  }

 protected:
  /// Builds the cell and admits every member; returns once every
  /// subscription is acknowledged.
  virtual void setup() = 0;
  /// Publishes the next reading of the closed loop.
  virtual bool publish_one() = 0;
  /// Runs the executor from the first publish until the harness is done.
  virtual void drive() = 0;
  /// Lets in-flight control traffic (acks, replication) finish.
  virtual void settle() = 0;
  /// Workload-specific run-end checks.
  virtual void verify() {}
  virtual Counters counters() = 0;
  virtual EventBus& bus() = 0;
  /// The reading publish_one makes for `rid` (also used by the replays).
  [[nodiscard]] virtual Reading sample(std::uint64_t rid) const = 0;
  /// Every subscription filter the bus holds, local ones included.
  [[nodiscard]] virtual std::vector<Filter> subscriptions() const = 0;
  /// (trigger filter, condition) of every obligation policy.
  [[nodiscard]] virtual std::vector<std::pair<Filter, const amuse::PolicyExpr*>>
  conditions() const {
    return {};
  }
  /// Probes taken between windows while tracing.
  virtual void sample_between_windows() {
    trace().max_backlog =
        std::max(trace().max_backlog, bus().max_proxy_backlog());
  }
  [[nodiscard]] virtual double repl_state_bytes() const { return 0; }

  /// Stamps the start of the measured run: set-up ends here.
  void begin() {
    bus_deliveries_at_start_ = bus().stats().deliveries;
    harness_.start();
  }

  void on_reading(std::uint32_t recipient, const Event& e, bool latency) {
    CallbackSpan span;
    Clock::time_point now = Clock::now();
    ++observed_;
    Checker::Outcome out = checker_.deliver(recipient, e);
    harness_.delivered(now, out.published, latency && out.expected);
    if (out.completed) on_complete();
  }

  void on_alarm(std::uint32_t policy, const Event& e) {
    CallbackSpan span;
    Clock::time_point now = Clock::now();
    ++observed_;
    Checker::Outcome out =
        checker_.alarm(rid_of(e), policy, e.get_double("value"));
    harness_.delivered(now, out.published, out.expected);
    if (out.completed) on_complete();
  }

  void on_complete() {
    if (harness_.tracing()) sample_between_windows();
    harness_.completed();
  }

  /// Publishes `e` as reading `rid` of `sender`, expecting it at
  /// `recipients` and raising `alarms`.
  void expect(const Reading& r, std::uint64_t recipients,
              std::vector<ExpectedAlarm> alarms = {}) {
    checker_.expect(r.rid, r.sensor, checksum(r), recipients,
                    std::move(alarms), Clock::now());
    harness_.published();
  }

  void sim_drive(amuse::SimExecutor& ex) {
    begin();
    std::uint64_t steps = 0;
    amuse::TimePoint vnow = ex.now();
    while (!harness_.done()) {
      if (!ex.step()) {
        checker_.check(false, "executor went idle with readings outstanding");
        return;
      }
      if (ex.now() != vnow) {
        vnow = ex.now();
        ++vtime_advances_;
      }
      if ((++steps & 63) == 0) harness_.tick(Clock::now());
    }
  }

  /// Steps `ex` until `ready()` or `limit` of simulated time passes.
  static void sim_until(amuse::SimExecutor& ex,
                        const std::function<bool()>& ready,
                        amuse::Duration limit, const char* what) {
    amuse::TimePoint deadline = ex.now() + limit;
    while (!ready()) {
      if (ex.now() > deadline || !ex.step()) {
        throw std::runtime_error(std::string("set-up did not finish: ") + what);
      }
    }
  }

  const RunOptions opts_;
  Checker checker_;
  Harness harness_;
  std::uint64_t next_rid_ = 0;
  std::uint64_t observed_ = 0;
  std::uint64_t vtime_advances_ = 0;
  std::vector<double> join_ms_;

 private:
  RunResult result() {
    RunResult r;
    r.attempted = checker_.attempted();
    r.failed = checker_.failed();
    const PhaseTotals& m = harness_.measured();
    r.correct = checker_.ok() && m.deliveries > 0;
    r.messages = checker_.messages();
    auto [lo, hi] = harness_.rate_range();
    char note[128];
    std::snprintf(note, sizeof note,
                  "untraced slices: %zu x %.3f s, %.0f..%.0f deliveries/s",
                  Harness::kSlices, m.seconds() / Harness::kSlices, lo, hi);
    r.notes.emplace_back(note);
    if (opts_.trace) {
      per_layer(r);
    } else {
      r.metrics = {
          {"deliveries_per_s", harness_.deliveries_per_s(), "1/s"},
          {"latency_p50_us", harness_.latency_us(0.50), "us"},
          {"latency_p99_us", harness_.latency_us(0.99), "us"},
          {"cpu_us_per_delivery", harness_.cpu_us_per_delivery(), "us"},
          {"setup_s", harness_.setup_seconds(), "s"},
          {"peak_rss_mb", peak_rss_mb_, "MB"},
      };
    }
    return r;
  }

  void per_layer(RunResult& r) {
    const TraceState& t = trace();
    const PhaseTotals& traced = harness_.traced();
    const PhaseTotals& untraced = harness_.measured();
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    double d = static_cast<double>(traced.deliveries);
    double readings = static_cast<double>(traced.readings);
    auto delta = [&](std::uint64_t Counters::*field) {
      return static_cast<double>(after_.*field - before_.*field);
    };
    auto handler_us = [&](EndpointRole role) {
      auto i = static_cast<std::size_t>(role);
      return per(static_cast<double>(t.handler_ns[i]) / 1000.0,
                 static_cast<double>(t.handler_calls[i]));
    };
    double recv_syscalls = delta(&Counters::recv_syscalls);
    double untraced_rate = per(static_cast<double>(untraced.deliveries),
                               untraced.seconds());
    double traced_rate = per(d, traced.seconds());

    r.metrics = {
        {"net.datagrams_per_delivery",
         per(static_cast<double>(t.datagrams_sent), d), "count"},
        {"net.bytes_per_delivery", per(static_cast<double>(t.bytes_sent), d),
         "B"},
        {"net.send_us_per_datagram",
         per(static_cast<double>(t.send_ns) / 1000.0,
             static_cast<double>(t.datagrams_sent)),
         "us"},
        // Loopback hands over one datagram per receive-handler call.
        {"net.datagrams_per_recv_syscall",
         recv_syscalls > 0 ? delta(&Counters::recv_datagrams) / recv_syscalls
                           : 1.0,
         "count"},
        {"sim.tasks_per_delivery", per(delta(&Counters::tasks), d), "count"},
        {"sim.wakeups_per_delivery", per(delta(&Counters::wakeups), d),
         "count"},
        {"wire.acks_delayed_per_delivery",
         per(delta(&Counters::acks_delayed), d), "count"},
        {"wire.messages_per_frame",
         per(static_cast<double>(t.data_messages),
             static_cast<double>(t.data_frames)),
         "count"},
        {"wire.ack_wait_us_p50", t.ack_wait_us.quantile(0.5), "us"},
        {"wire.retransmissions", delta(&Counters::retransmissions), "count"},
        {"bus.handler_us_per_datagram", handler_us(EndpointRole::kBus), "us"},
        {"bus.route_us", t.route_us.quantile(0.5), "us"},
        {"bus.client_us_per_datagram", handler_us(EndpointRole::kMember),
         "us"},
        {"bus.repl_bytes_hashed_per_reading",
         per(repl_state_bytes() * delta(&Counters::repl_updates), readings),
         "B"},
        {"proxy.max_backlog", static_cast<double>(t.max_backlog), "count"},
    };
    replays(r);
    r.metrics.push_back({"policy.auth_check_ns",
                         per(static_cast<double>(t.auth_ns),
                             static_cast<double>(t.auth_calls)),
                         "ns"});
    r.metrics.push_back({"policy.auth_checks_per_reading",
                         per(static_cast<double>(t.auth_calls), readings),
                         "count"});
    r.metrics.push_back({"policy.triggers_per_reading",
                         per(delta(&Counters::triggers), readings), "count"});
    r.metrics.push_back({"discovery.join_ms_p50", median(join_ms_), "ms"});
    r.metrics.push_back({"smc.standby_us_per_datagram",
                         handler_us(EndpointRole::kStandby), "us"});
    r.metrics.push_back(
        {"trace.overhead_pct",
         untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate * 100
                           : 0,
         "%"});
  }

  /// Replays the public codec, matcher, checksums and policy conditions on
  /// the workload's own readings and subscription set.
  void replays(RunResult& r) const {
    std::vector<Event> events;
    std::vector<amuse::Bytes> encoded;
    amuse::Bytes blob;
    for (std::uint64_t rid = 1; rid <= 256; ++rid) {
      events.push_back(to_event(sample(rid)));
      encoded.push_back(amuse::encode_event(events.back()));
    }
    while (blob.size() < (64U << 10)) {
      for (const auto& e : encoded) blob.insert(blob.end(), e.begin(), e.end());
    }
    r.metrics.push_back({"pubsub.encode_ns", ns_per_unit([&] {
                           for (const Event& e : events) {
                             g_sink = g_sink + amuse::encode_event(e).size();
                           }
                           return events.size();
                         }),
                         "ns"});
    r.metrics.push_back({"pubsub.decode_ns", ns_per_unit([&] {
                           for (const auto& b : encoded) {
                             g_sink = g_sink + amuse::decode_event(b).size();
                           }
                           return encoded.size();
                         }),
                         "ns"});
    amuse::FastForwardMatcher matcher;
    amuse::SubId id = 0;
    for (const Filter& f : subscriptions()) matcher.add(++id, f);
    std::vector<amuse::SubId> hits;
    r.metrics.push_back({"pubsub.match_ns", ns_per_unit([&] {
                           for (const Event& e : events) {
                             hits.clear();
                             matcher.match(e, hits);
                             g_sink = g_sink + hits.size();
                           }
                           return events.size();
                         }),
                         "ns"});
    r.metrics.push_back({"common.crc32_ns_per_byte", ns_per_unit([&] {
                           g_sink = g_sink + amuse::crc32(blob);
                           return blob.size();
                         }),
                         "ns/B"});
    r.metrics.push_back({"common.sha256_ns_per_byte", ns_per_unit([&] {
                           g_sink = g_sink + amuse::Sha256::hash(blob)[0];
                           return blob.size();
                         }),
                         "ns/B"});
    auto policies = conditions();
    double eval_ns = 0;
    if (!policies.empty()) {
      eval_ns = ns_per_unit([&] {
        std::size_t evaluated = 0;
        for (const Event& e : events) {
          for (const auto& [trigger, condition] : policies) {
            if (!trigger.matches(e)) continue;
            g_sink = g_sink + (amuse::eval_condition(condition, e) ? 1 : 0);
            ++evaluated;
          }
        }
        return evaluated;
      });
    }
    r.metrics.push_back({"policy.condition_eval_ns", eval_ns, "ns"});
  }

  std::uint64_t bus_deliveries_at_start_ = 0;
  double peak_rss_mb_ = 0;
  Counters before_;
  Counters after_;
};

// ---------------------------------------------------------------------------
// ward_fanout: one sensor, 16 consoles that all match, bare bus in-process.

class WardFanout final : public Workload {
 public:
  static constexpr std::size_t kConsoles = 16;

  explicit WardFanout(const RunOptions& o)
      : Workload(o, kConsoles, 1, /*window=*/8), net_(ex_) {}

 private:
  void setup() override {
    bus_ = std::make_unique<EventBus>(
        ex_, maybe_traced(net_.create_endpoint(), EndpointRole::kBus, opts_.trace));
    auto client = [&](const char* type, const char* role) {
      auto t = maybe_traced(net_.create_endpoint(), EndpointRole::kMember,
                            opts_.trace);
      bus_->add_member(MemberInfo{t->local_id(), type, role});
      return std::make_unique<BusClient>(ex_, t, bus_->bus_id());
    };
    sensor_ = client("sensor.vitals", "sensor");
    for (std::uint32_t i = 0; i < kConsoles; ++i) {
      consoles_.push_back(client("console.nurse", "nurse"));
      consoles_.back()->subscribe(
          Filter::for_type("vitals.reading"),
          [this, i](const Event& e) { on_reading(i, e, true); });
    }
    sim_until(
        ex_,
        [&] {
          return std::all_of(consoles_.begin(), consoles_.end(), [&](auto& c) {
            return c->backlog() == 0 &&
                   bus_->registry().member_subscriptions(c->id()) == 1;
          });
        },
        amuse::seconds(30), "console subscriptions");
  }

  Reading sample(std::uint64_t rid) const override {
    return make_reading(opts_.seed, rid, 0,
                        static_cast<std::uint32_t>(rid % 16), "vitals.reading");
  }

  bool publish_one() override {
    Reading r = sample(++next_rid_);
    Event e = to_event(r);
    expect(r, all_of(kConsoles));
    sensor_->publish(std::move(e));
    return true;
  }

  void drive() override { sim_drive(ex_); }
  void settle() override { ex_.run_for(amuse::seconds(1)); }

  Counters counters() override {
    Counters c;
    c.tasks = ex_.tasks_executed();
    c.wakeups = vtime_advances_;
    add_channel(c, sensor_->channel_stats());
    for (auto& k : consoles_) add_channel(c, k->channel_stats());
    add_proxies(c, *bus_);
    return c;
  }
  EventBus& bus() override { return *bus_; }
  std::vector<Filter> subscriptions() const override {
    return std::vector<Filter>(kConsoles, Filter::for_type("vitals.reading"));
  }

  amuse::SimExecutor ex_;
  amuse::LoopbackNetwork net_;
  std::unique_ptr<EventBus> bus_;
  std::unique_ptr<BusClient> sensor_;
  std::vector<std::unique_ptr<BusClient>> consoles_;
};

// ---------------------------------------------------------------------------
// Discovery-admitted members of an in-process SelfManagedCell.

class CellWorkload : public Workload {
 protected:
  CellWorkload(const RunOptions& o, std::size_t recipients,
               std::size_t senders, std::size_t window)
      : Workload(o, recipients, senders, window), net_(ex_) {}

  amuse::SmcCellConfig cell_config() const {
    amuse::SmcCellConfig cfg;
    cfg.name = kCellName;
    cfg.pre_shared_key = psk();
    return cfg;
  }

  void make_cell(amuse::SmcCellConfig cfg) {
    cell_ = std::make_unique<amuse::SelfManagedCell>(
        ex_,
        maybe_traced(net_.create_endpoint(), EndpointRole::kBus, opts_.trace),
        maybe_traced(net_.create_endpoint(), EndpointRole::kOther, opts_.trace),
        std::move(cfg));
    if (opts_.trace) {
      cell_->bus().set_authoriser(
          timed_authoriser(cell_->authorisation().authoriser()));
    }
  }

  SmcMember& add_member(const char* type, const char* role) {
    amuse::SmcMemberConfig mc;
    mc.agent.cell_name = kCellName;
    mc.agent.pre_shared_key = psk();
    mc.agent.device_type = type;
    mc.agent.role = role;
    members_.push_back(std::make_unique<SmcMember>(
        ex_,
        maybe_traced(net_.create_endpoint(), EndpointRole::kMember,
                     opts_.trace),
        mc));
    return *members_.back();
  }

  /// Starts every member and waits until each joined through the discovery
  /// handshake and had `subs[i]` subscriptions acknowledged.
  void admit(const std::vector<std::size_t>& subs,
             const std::function<bool()>& extra_ready) {
    std::vector<Clock::time_point> started(members_.size());
    join_ms_.assign(members_.size(), 0);
    for (std::size_t i = 0; i < members_.size(); ++i) {
      members_[i]->set_on_joined([this, i, &started] {
        join_ms_[i] = std::chrono::duration<double, std::milli>(
                          Clock::now() - started[i])
                          .count();
      });
      started[i] = Clock::now();
      members_[i]->start();
    }
    sim_until(
        ex_,
        [&] {
          for (std::size_t i = 0; i < members_.size(); ++i) {
            SmcMember& m = *members_[i];
            if (!m.joined() || m.client()->backlog() != 0 ||
                cell_->bus().registry().member_subscriptions(m.id()) !=
                    subs[i]) {
              return false;
            }
          }
          return extra_ready();
        },
        amuse::seconds(60), "discovery admission and subscriptions");
    for (auto& m : members_) m->set_on_joined({});
  }

  void drive() override { sim_drive(ex_); }
  void settle() override { ex_.run_for(amuse::seconds(2)); }
  EventBus& bus() override { return cell_->bus(); }

  Counters counters() override {
    Counters c;
    c.tasks = ex_.tasks_executed();
    c.wakeups = vtime_advances_;
    c.repl_updates = cell_->bus().stats().repl_updates;
    c.triggers = cell_->obligations().stats().triggers;
    for (auto& m : members_) {
      if (m->client() != nullptr) add_channel(c, m->client()->channel_stats());
    }
    add_proxies(c, cell_->bus());
    return c;
  }

  amuse::SimExecutor ex_;
  amuse::LoopbackNetwork net_;
  std::unique_ptr<amuse::SelfManagedCell> cell_;
  std::vector<std::unique_ptr<SmcMember>> members_;
};

// ---------------------------------------------------------------------------
// policy_alarm: authorisation, content filters and obligation policies.

class PolicyAlarm final : public CellWorkload {
 public:
  static constexpr std::uint32_t kSensors = 8;
  static constexpr std::uint32_t kPatients = 16;
  static constexpr std::uint32_t kRecorders = 4;
  static constexpr std::uint64_t kGuestEvery = 8;
  static constexpr std::uint64_t kGuestRidBase = std::uint64_t{1} << 40;

  explicit PolicyAlarm(const RunOptions& o)
      : CellWorkload(o, kRecorders, kSensors, /*window=*/16) {
    for (std::uint32_t p = 0; p < kPatients; ++p) {
      std::uint64_t m = mix64(o.seed ^ (0x7011c1e5ULL + p));
      hr_high_.push_back(134.5 + static_cast<double>(m % 10));
      spo2_low_.push_back(85.5 + static_cast<double>((m >> 8) % 2));
    }
  }

 private:
  /// ~290 auth rules (first match wins, default deny) and two obligation
  /// policies per patient. Sensor publishes match near the end of the
  /// list; the guest's match none and fall through to the default.
  std::string policy_text() const {
    std::string t = "auth default deny;\n";
    char buf[256];
    for (const char* rule : {"deny role \"visitor\" publish",
                             "deny role \"family\" subscribe",
                             "permit role \"pharmacy\" publish rx.",
                             "permit role \"clinician\" subscribe"}) {
      for (std::uint32_t p = 0; p < 64; ++p) {
        std::string r = rule;
        if (r.ends_with("rx.")) {
          std::snprintf(buf, sizeof buf, "auth %sp%02u;\n", rule, p);
        } else {
          std::snprintf(buf, sizeof buf, "auth %s %s;\n", rule,
                        patient_topic(p).c_str());
        }
        t += buf;
      }
    }
    for (std::uint32_t p = 0; p < kPatients; ++p) {
      t += "auth permit role \"recorder\" subscribe " + patient_topic(p) + ";\n";
    }
    t += "auth permit role \"nurse\" subscribe alarm.*;\n";
    for (std::uint32_t p = 0; p < kPatients; ++p) {
      t += "auth permit role \"sensor\" publish " + patient_topic(p) + ";\n";
    }
    for (std::uint32_t p = 0; p < kPatients; ++p) {
      std::snprintf(buf, sizeof buf,
                    "policy hr_p%02u on %s when hr > %.1f do publish alarm.hr "
                    "{ patient = patient, rid = rid, value = hr };\n"
                    "policy spo2_p%02u on %s when spo2 < %.1f do publish "
                    "alarm.spo2 { patient = patient, rid = rid, value = spo2 };\n",
                    p, patient_topic(p).c_str(), hr_high_[p], p,
                    patient_topic(p).c_str(), spo2_low_[p]);
      t += buf;
    }
    return t;
  }

  /// Recorders 0/1 split patients 0-7 on hr >= 100; recorders 2/3 split
  /// patients 8-15 on spo2 >= 93. Every reading reaches exactly one.
  static Filter recorder_filter(std::uint32_t recorder, std::uint32_t patient) {
    Filter f = Filter::for_type(patient_topic(patient));
    switch (recorder) {
      case 0: return f.where("hr", Op::kGe, 100.0);
      case 1: return f.where("hr", Op::kLt, 100.0);
      case 2: return f.where("spo2", Op::kGe, 93.0);
      default: return f.where("spo2", Op::kLt, 93.0);
    }
  }
  static std::vector<std::uint32_t> recorder_patients(std::uint32_t recorder) {
    std::vector<std::uint32_t> out;
    std::uint32_t first = recorder < 2 ? 0 : 8;
    for (std::uint32_t p = first; p < first + 8; ++p) out.push_back(p);
    return out;
  }
  static std::uint64_t recorder_mask(const Reading& r) {
    if (r.patient < 8) return r.hr >= 100.0 ? 0b0001 : 0b0010;
    return r.spo2 >= 93.0 ? 0b0100 : 0b1000;
  }
  std::vector<ExpectedAlarm> expected_alarms(const Reading& r) const {
    std::vector<ExpectedAlarm> a;
    if (r.hr > hr_high_[r.patient]) a.push_back({2 * r.patient, r.hr});
    if (r.spo2 < spo2_low_[r.patient]) a.push_back({2 * r.patient + 1, r.spo2});
    return a;
  }
  static std::uint32_t policy_index(const std::string& name) {
    unsigned p = 0;
    if (std::sscanf(name.c_str(), "hr_p%u", &p) == 1) return 2 * p;
    if (std::sscanf(name.c_str(), "spo2_p%u", &p) == 1) return 2 * p + 1;
    return ~0U;
  }

  void setup() override {
    make_cell(cell_config());
    cell_->load_policies(policy_text());
    cell_->start();
    std::vector<std::size_t> subs;
    for (std::uint32_t s = 0; s < kSensors; ++s) {
      sensors_.push_back(&add_member("sensor.vitals", "sensor"));
      subs.push_back(0);
    }
    SmcMember& console = add_member("console.nurse", "nurse");
    console.subscribe(Filter::for_type_prefix("alarm."), [this](const Event& e) {
      on_alarm(policy_index(e.get_string("x-policy")), e);
    });
    subs.push_back(1);
    for (std::uint32_t k = 0; k < kRecorders; ++k) {
      SmcMember& rec = add_member("recorder.ehr", "recorder");
      for (std::uint32_t p : recorder_patients(k)) {
        rec.subscribe(recorder_filter(k, p),
                      [this, k](const Event& e) { on_reading(k, e, false); });
      }
      subs.push_back(8);
    }
    guest_ = &add_member("sensor.vitals", "guest");
    subs.push_back(0);
    admit(subs, [] { return true; });
    checker_.check_count("subscriptions denied at set-up", 0,
                         cell_->bus().stats().denied_subscribe);
  }

  Reading sample(std::uint64_t rid) const override {
    auto sensor = static_cast<std::uint32_t>((rid - 1) % kSensors);
    auto patient =
        static_cast<std::uint32_t>(2 * sensor + ((rid - 1) / kSensors) % 2);
    return make_reading(opts_.seed, rid, sensor, patient,
                        patient_topic(patient));
  }

  bool publish_one() override {
    Reading r = sample(++next_rid_);
    if (next_rid_ % kGuestEvery == 0) {
      // The guest's readings are denied: they must reach no member and
      // raise no alarm, whatever their values.
      Reading g = make_reading(opts_.seed, kGuestRidBase + next_rid_, kSensors,
                               r.patient, r.type);
      g.hr = 149;
      g.spo2 = 85;
      guest_->publish(to_event(g));
      ++guest_sent_;
    }
    Event e = to_event(r);
    expect(r, recorder_mask(r), expected_alarms(r));
    sensors_[r.sensor]->publish(std::move(e));
    return true;
  }

  void verify() override {
    checker_.check_count("guest publishes denied by the bus", guest_sent_,
                         cell_->bus().stats().denied_publish);
  }

  std::vector<Filter> subscriptions() const override {
    std::vector<Filter> out;
    for (const auto& [trigger, condition] : conditions()) {
      out.push_back(trigger);
    }
    out.push_back(Filter::for_type_prefix("alarm."));
    for (std::uint32_t k = 0; k < kRecorders; ++k) {
      for (std::uint32_t p : recorder_patients(k)) {
        out.push_back(recorder_filter(k, p));
      }
    }
    return out;
  }

  std::vector<std::pair<Filter, const amuse::PolicyExpr*>> conditions()
      const override {
    std::vector<std::pair<Filter, const amuse::PolicyExpr*>> out;
    for (const amuse::ObligationPolicy* p : cell_->policies().enabled()) {
      out.emplace_back(p->trigger_filter(), p->condition.get());
    }
    return out;
  }

  std::vector<double> hr_high_;
  std::vector<double> spo2_low_;
  std::vector<SmcMember*> sensors_;
  SmcMember* guest_ = nullptr;
  std::uint64_t guest_sent_ = 0;
};

// ---------------------------------------------------------------------------
// ha_cell: plain fan-out in a cell mirrored by one warm standby.

class HaCell final : public CellWorkload {
 public:
  static constexpr std::uint32_t kConsoles = 4;
  static constexpr std::size_t kSpoolEvents = 512;

  explicit HaCell(const RunOptions& o)
      : CellWorkload(o, kConsoles, 1, /*window=*/32) {}

 private:
  void setup() override {
    amuse::SmcCellConfig cfg = cell_config();
    cfg.bus.ha = true;
    make_cell(cfg);
    cell_->start();
    amuse::StandbyCoreConfig sc;
    sc.agent.cell_name = kCellName;
    sc.agent.pre_shared_key = psk();
    sc.cell = cfg;
    standby_ = std::make_unique<amuse::StandbyCore>(
        ex_,
        maybe_traced(net_.create_endpoint(), EndpointRole::kStandby,
                     opts_.trace),
        net_.create_endpoint(), net_.create_endpoint(), sc);
    standby_->start();
    sensor_ = &add_member("sensor.vitals", "sensor");
    std::vector<std::size_t> subs{0};
    for (std::uint32_t i = 0; i < kConsoles; ++i) {
      add_member("console.nurse", "nurse")
          .subscribe(Filter::for_type("vitals.reading"),
                     [this, i](const Event& e) { on_reading(i, e, true); });
      subs.push_back(1);
    }
    admit(subs, [this] { return standby_->synced(); });
  }

  Reading sample(std::uint64_t rid) const override {
    return make_reading(opts_.seed, rid, 0,
                        static_cast<std::uint32_t>(rid % 16), "vitals.reading");
  }

  bool publish_one() override {
    Reading r = sample(++next_rid_);
    Event e = to_event(r);
    expect(r, all_of(kConsoles));
    sensor_->publish(std::move(e));
    return true;
  }

  void sample_between_windows() override {
    CellWorkload::sample_between_windows();
    // Encoding the state is itself costly: sample one window in 64.
    if ((++windows_ & 63) == 0) {
      repl_bytes_sum_ +=
          static_cast<double>(cell_->bus().repl_state().encode().size());
      ++repl_samples_;
    }
  }
  double repl_state_bytes() const override {
    return repl_samples_ > 0 ? repl_bytes_sum_ / repl_samples_ : 0;
  }

  void verify() override {
    const amuse::ReplState& core = cell_->bus().repl_state();
    const amuse::ReplState& mirror = standby_->mirror().state();
    checker_.check(standby_->synced(), "standby mirror out of sync");
    checker_.check(!standby_->promoted() &&
                       standby_->stats().promotions == 0 &&
                       cell_->bus().stats().promotions == 0,
                   "a promotion happened in a healthy cell");
    // Path 1: the two canonical encodings are byte-equal.
    checker_.check_bytes("standby mirror and core state encodings",
                         core.encode(), mirror.encode());
    // Path 2: the mirrored spool, decoded with the public codec, holds
    // exactly the last readings the benchmark published, in order.
    std::uint64_t want = std::min<std::uint64_t>(kSpoolEvents, next_rid_);
    checker_.check_count("readings in the mirrored spool", want,
                         mirror.spool.size());
    std::uint64_t rid = next_rid_ + 1 - mirror.spool.size();
    for (const amuse::ReplSpoolEntry& entry : mirror.spool) {
      bool ok = false;
      try {
        Event e = amuse::decode_event(entry.event);
        ok = rid_of(e) == rid && checksum(e) == checksum(sample(rid));
      } catch (const amuse::DecodeError&) {
      }
      if (!ok) {
        checker_.check(false, "mirrored spool entry for reading " +
                                  std::to_string(rid) +
                                  " differs from the published reading");
        break;
      }
      ++rid;
    }
    std::size_t subs = 0;
    for (const auto& [id, m] : mirror.members) subs += m.subs.size();
    checker_.check_count("subscriptions in the mirror", kConsoles, subs);
  }

  std::vector<Filter> subscriptions() const override {
    return std::vector<Filter>(kConsoles, Filter::for_type("vitals.reading"));
  }

  std::unique_ptr<amuse::StandbyCore> standby_;
  SmcMember* sensor_ = nullptr;
  std::uint64_t windows_ = 0;
  double repl_bytes_sum_ = 0;
  double repl_samples_ = 0;
};

// ---------------------------------------------------------------------------
// udp_cell: real loopback UDP sockets on the wall-clock executor.

class UdpCell final : public Workload {
 public:
  explicit UdpCell(const RunOptions& o) : Workload(o, 1, 1, /*window=*/32) {}

 private:
  void setup() override {
    try {
      bus_udp_ = amuse::UdpTransport::open(ex_);
      pub_udp_ = amuse::UdpTransport::open(ex_);
      sub_udp_ = amuse::UdpTransport::open(ex_);
    } catch (const std::system_error& e) {
      throw std::runtime_error(std::string("UDP sockets unavailable: ") +
                               e.what());
    }
    bus_ = std::make_unique<EventBus>(
        ex_, maybe_traced(bus_udp_, EndpointRole::kBus, opts_.trace));
    auto client = [&](const std::shared_ptr<amuse::UdpTransport>& udp,
                      const char* type, const char* role) {
      auto t = maybe_traced(udp, EndpointRole::kMember, opts_.trace);
      bus_->add_member(MemberInfo{t->local_id(), type, role});
      return std::make_unique<BusClient>(ex_, t, bus_->bus_id());
    };
    pub_ = client(pub_udp_, "sensor.vitals", "sensor");
    sub_ = client(sub_udp_, "console.nurse", "nurse");
    sub_->subscribe(Filter::for_type("vitals.reading"),
                    [this](const Event& e) { on_reading(0, e, true); });
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
    while (sub_->backlog() != 0 ||
           bus_->registry().member_subscriptions(sub_->id()) != 1) {
      if (Clock::now() > deadline) {
        throw std::runtime_error("set-up did not finish: UDP subscription");
      }
      ex_.run_for(amuse::milliseconds(1));
    }
  }

  Reading sample(std::uint64_t rid) const override {
    return make_reading(opts_.seed, rid, 0,
                        static_cast<std::uint32_t>(rid % 16), "vitals.reading");
  }

  bool publish_one() override {
    Reading r = sample(++next_rid_);
    Event e = to_event(r);
    expect(r, 1);
    pub_->publish(std::move(e));
    return true;
  }

  void drive() override {
    std::function<void()> poll = [&] {
      harness_.tick(Clock::now());
      if (harness_.done()) {
        ex_.stop();
        return;
      }
      ex_.schedule_after(amuse::milliseconds(10), poll);
    };
    ex_.post([this] { begin(); });
    ex_.schedule_after(amuse::milliseconds(10), poll);
    ex_.run();
  }

  void settle() override { ex_.run_for(amuse::milliseconds(100)); }

  Counters counters() override {
    Counters c;
    amuse::RealExecutorStats s = ex_.stats();
    c.tasks = s.tasks_run;
    c.wakeups = s.wakeups;
    for (const auto& u : {bus_udp_, pub_udp_, sub_udp_}) {
      amuse::UdpTransportStats us = u->stats();
      c.recv_datagrams += us.datagrams_received;
      c.recv_syscalls += us.recv_syscalls;
    }
    add_channel(c, pub_->channel_stats());
    add_channel(c, sub_->channel_stats());
    add_proxies(c, *bus_);
    return c;
  }
  EventBus& bus() override { return *bus_; }
  std::vector<Filter> subscriptions() const override {
    return {Filter::for_type("vitals.reading")};
  }

  // Declaration order is teardown order in reverse: clients and bus go
  // before the sockets, whose destructors join their receive threads.
  amuse::RealExecutor ex_;
  std::shared_ptr<amuse::UdpTransport> bus_udp_;
  std::shared_ptr<amuse::UdpTransport> pub_udp_;
  std::shared_ptr<amuse::UdpTransport> sub_udp_;
  std::unique_ptr<EventBus> bus_;
  std::unique_ptr<BusClient> pub_;
  std::unique_ptr<BusClient> sub_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ward_fanout", "policy_alarm",
                                                 "ha_cell", "udp_cell"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  std::unique_ptr<Workload> w;
  if (options.workload == "ward_fanout") {
    w = std::make_unique<WardFanout>(options);
  } else if (options.workload == "policy_alarm") {
    w = std::make_unique<PolicyAlarm>(options);
  } else if (options.workload == "ha_cell") {
    w = std::make_unique<HaCell>(options);
  } else if (options.workload == "udp_cell") {
    w = std::make_unique<UdpCell>(options);
  } else {
    throw std::runtime_error("unknown workload " + options.workload);
  }
  return w->run();
}

}  // namespace perfbench
