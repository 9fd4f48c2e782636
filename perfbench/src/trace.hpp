// Traced mode: per-layer attribution measured from outside the program.
//
// Spans are taken around calls into each layer from the benchmark's own
// code: a Transport decorator on every endpoint (datagrams, bytes, time in
// send and in each endpoint's receive handler, DATA/ACK pairs decoded with
// the public Packet codec), a BusObserver for route spans, and a wrapper
// around the bus's authoriser. All of it records only while `on` is set,
// i.e. during the traced half of the measured span.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bus/bus_observer.hpp"
#include "bus/event_bus.hpp"
#include "harness.hpp"
#include "net/transport.hpp"

namespace perfbench {

/// Which layer an endpoint's receive handler belongs to.
enum class EndpointRole { kBus, kMember, kStandby, kOther };

struct TraceState {
  TraceState();

  bool on = false;
  // net: every datagram handed to any endpoint's transport.
  std::uint64_t datagrams_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t send_ns = 0;
  // Receive-handler self time per endpoint role.
  std::uint64_t handler_ns[4] = {0, 0, 0, 0};
  std::uint64_t handler_calls[4] = {0, 0, 0, 0};
  /// Time inside the benchmark's own member callbacks (subtracted from the
  /// member endpoints' handler time).
  std::uint64_t callback_ns = 0;
  // wire: DATA frames and their messages; DATA send → covering ACK.
  std::uint64_t data_frames = 0;
  std::uint64_t data_messages = 0;
  Reservoir ack_wait_us;
  // bus: publish → last member fan-out of the same event.
  Reservoir route_us;
  // policy: the wrapped authoriser.
  std::uint64_t auth_ns = 0;
  std::uint64_t auth_calls = 0;
  // proxy: largest backlog sampled between windows.
  std::size_t max_backlog = 0;

  /// DATA frames in flight per (sender, receiver): (end seq, sent at).
  struct Sent {
    std::uint32_t end = 0;
    Clock::time_point at{};
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Sent>>
      in_flight;
  struct RouteSpan {
    std::uint64_t publisher = 0;
    std::uint64_t seq = 0;
    Clock::time_point begin{};
    Clock::time_point last{};
    bool delivered = false;
  };
  std::vector<RouteSpan> open_routes;

  void on_send(std::uint64_t src, std::uint64_t dst, amuse::BytesView data,
               Clock::time_point at);
  void on_receive(std::uint64_t self, std::uint64_t src, amuse::BytesView data,
                  Clock::time_point at);
  void close_routes();
};

/// The process-wide trace state (one workload per process).
[[nodiscard]] TraceState& trace();

/// Counts, times and decodes every datagram through an endpoint.
class TracedTransport final : public amuse::Transport {
 public:
  TracedTransport(std::shared_ptr<amuse::Transport> inner, EndpointRole role)
      : inner_(std::move(inner)), role_(role) {}

  [[nodiscard]] amuse::ServiceId local_id() const override {
    return inner_->local_id();
  }
  void send(amuse::ServiceId dst, amuse::BytesView data) override;
  void send_batch(std::span<const Datagram> batch) override;
  void broadcast(amuse::BytesView data) override;
  void set_receive_handler(ReceiveHandler handler) override;
  [[nodiscard]] std::size_t max_datagram() const override {
    return inner_->max_datagram();
  }

 private:
  std::shared_ptr<amuse::Transport> inner_;
  EndpointRole role_;
};

/// Wraps `t` in a TracedTransport when tracing, else returns it unchanged.
[[nodiscard]] std::shared_ptr<amuse::Transport> maybe_traced(
    std::shared_ptr<amuse::Transport> t, EndpointRole role, bool tracing);

/// Route spans: on_publish opens one, on_deliver extends it; the bus
/// endpoint's decorator closes them when its receive handler returns.
[[nodiscard]] amuse::BusObserver route_observer();

/// Times and counts every authorisation decision of `inner`.
[[nodiscard]] amuse::EventBus::Authoriser timed_authoriser(
    amuse::EventBus::Authoriser inner);

/// RAII: charges the enclosed benchmark callback to TraceState::callback_ns.
class CallbackSpan {
 public:
  CallbackSpan() : on_(trace().on), begin_(on_ ? Clock::now() : Clock::time_point{}) {}
  ~CallbackSpan();
  CallbackSpan(const CallbackSpan&) = delete;
  CallbackSpan& operator=(const CallbackSpan&) = delete;

 private:
  bool on_;
  Clock::time_point begin_;
};

}  // namespace perfbench
