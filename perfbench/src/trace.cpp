#include "trace.hpp"

#include <algorithm>

#include "wire/packet.hpp"

namespace perfbench {
namespace {

std::uint64_t ns_since(Clock::time_point begin, Clock::time_point end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
}

double us_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

}  // namespace

TraceState::TraceState()
    : ack_wait_us(1U << 16, 0xac4ULL), route_us(1U << 16, 0x2073ULL) {}

TraceState& trace() {
  static TraceState state;
  return state;
}

void TraceState::on_send(std::uint64_t src, std::uint64_t dst,
                         amuse::BytesView data, Clock::time_point at) {
  ++datagrams_sent;
  bytes_sent += data.size();
  std::optional<amuse::Packet> p = amuse::Packet::decode(data);
  if (!p || p->type != amuse::PacketType::kData) return;
  std::uint32_t messages = 1;
  if ((p->flags & amuse::kFlagBatched) != 0) {
    if (auto subs = amuse::Packet::split_batch(p->payload)) {
      messages = static_cast<std::uint32_t>(subs->size());
    }
  }
  ++data_frames;
  data_messages += messages;
  std::vector<Sent>& sent = in_flight[{src, dst}];
  std::uint32_t end = p->seq + messages;
  // A retransmission keeps the first send's timestamp.
  if (sent.empty() || end > sent.back().end) sent.push_back({end, at});
}

void TraceState::on_receive(std::uint64_t self, std::uint64_t src,
                            amuse::BytesView data, Clock::time_point at) {
  std::optional<amuse::Packet> p = amuse::Packet::decode(data);
  if (!p || (p->type != amuse::PacketType::kAck &&
             p->type != amuse::PacketType::kData)) {
    return;
  }
  // Both ACK and DATA frames carry the peer's cumulative ack of our stream.
  auto it = in_flight.find({self, src});
  if (it == in_flight.end()) return;
  std::vector<Sent>& sent = it->second;
  auto covered = std::find_if(sent.begin(), sent.end(), [&](const Sent& s) {
    return s.end > p->ack;
  });
  for (auto s = sent.begin(); s != covered; ++s) {
    ack_wait_us.add(us_between(s->at, at));
  }
  sent.erase(sent.begin(), covered);
}

void TraceState::close_routes() {
  for (const RouteSpan& s : open_routes) {
    if (s.delivered) route_us.add(us_between(s.begin, s.last));
  }
  open_routes.clear();
}

void TracedTransport::send(amuse::ServiceId dst, amuse::BytesView data) {
  TraceState& t = trace();
  if (!t.on) return inner_->send(dst, data);
  Clock::time_point begin = Clock::now();
  inner_->send(dst, data);
  Clock::time_point end = Clock::now();
  t.send_ns += ns_since(begin, end);
  t.on_send(local_id().raw(), dst.raw(), data, begin);
}

void TracedTransport::send_batch(std::span<const Datagram> batch) {
  TraceState& t = trace();
  if (!t.on) return inner_->send_batch(batch);
  Clock::time_point begin = Clock::now();
  inner_->send_batch(batch);
  Clock::time_point end = Clock::now();
  t.send_ns += ns_since(begin, end);
  for (const Datagram& d : batch) {
    t.on_send(local_id().raw(), d.dst.raw(), d.data, begin);
  }
}

void TracedTransport::broadcast(amuse::BytesView data) {
  TraceState& t = trace();
  if (!t.on) return inner_->broadcast(data);
  Clock::time_point begin = Clock::now();
  inner_->broadcast(data);
  t.send_ns += ns_since(begin, Clock::now());
  ++t.datagrams_sent;
  t.bytes_sent += data.size();
}

void TracedTransport::set_receive_handler(ReceiveHandler handler) {
  if (!handler) return inner_->set_receive_handler({});
  inner_->set_receive_handler(
      [this, handler = std::move(handler)](amuse::ServiceId src,
                                           amuse::BytesView data) {
        TraceState& t = trace();
        if (!t.on) return handler(src, data);
        Clock::time_point begin = Clock::now();
        t.on_receive(local_id().raw(), src.raw(), data, begin);
        std::uint64_t callbacks_before = t.callback_ns;
        begin = Clock::now();
        handler(src, data);
        Clock::time_point end = Clock::now();
        auto role = static_cast<std::size_t>(role_);
        std::uint64_t spent = ns_since(begin, end);
        std::uint64_t in_callbacks = t.callback_ns - callbacks_before;
        t.handler_ns[role] += spent > in_callbacks ? spent - in_callbacks : 0;
        ++t.handler_calls[role];
        if (role_ == EndpointRole::kBus) t.close_routes();
      });
}

std::shared_ptr<amuse::Transport> maybe_traced(
    std::shared_ptr<amuse::Transport> t, EndpointRole role, bool tracing) {
  if (!tracing) return t;
  return std::make_shared<TracedTransport>(std::move(t), role);
}

amuse::BusObserver route_observer() {
  amuse::BusObserver o;
  o.on_publish = [](const amuse::Event& e) {
    TraceState& t = trace();
    if (!t.on) return;
    t.open_routes.push_back(
        {e.publisher().raw(), e.publisher_seq(), Clock::now(), {}, false});
  };
  o.on_deliver = [](amuse::ServiceId, const amuse::Event& e,
                    const std::vector<std::uint64_t>&) {
    TraceState& t = trace();
    if (!t.on) return;
    for (auto s = t.open_routes.rbegin(); s != t.open_routes.rend(); ++s) {
      if (s->publisher == e.publisher().raw() &&
          s->seq == e.publisher_seq()) {
        s->last = Clock::now();
        s->delivered = true;
        return;
      }
    }
  };
  return o;
}

amuse::EventBus::Authoriser timed_authoriser(
    amuse::EventBus::Authoriser inner) {
  return [inner = std::move(inner)](const amuse::MemberInfo& member,
                                    amuse::AuthAction action,
                                    std::string_view topic) {
    TraceState& t = trace();
    if (!t.on) return inner(member, action, topic);
    Clock::time_point begin = Clock::now();
    bool permitted = inner(member, action, topic);
    t.auth_ns += ns_since(begin, Clock::now());
    ++t.auth_calls;
    return permitted;
  };
}

CallbackSpan::~CallbackSpan() {
  if (on_) trace().callback_ns += ns_since(begin_, Clock::now());
}

}  // namespace perfbench
