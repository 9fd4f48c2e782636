#include "reading.hpp"

#include <cstring>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Reading make_reading(std::uint64_t seed, std::uint64_t rid,
                     std::uint32_t sensor, std::uint32_t patient,
                     std::string type) {
  std::uint64_t s = mix64(seed * 0x100000001b3ULL ^ rid);
  auto next = [&s] {
    s = mix64(s);
    return s;
  };
  Reading r;
  r.rid = rid;
  r.sensor = sensor;
  r.patient = patient;
  r.type = std::move(type);
  r.hr = static_cast<double>(50 + next() % 100);
  r.spo2 = static_cast<double>(85 + next() % 16);
  r.temp = 36.0 + static_cast<double>(next() % 40) / 10.0;
  r.bp_sys = static_cast<std::int64_t>(90 + next() % 90);
  r.bp_dia = static_cast<std::int64_t>(50 + next() % 50);
  r.wave.resize(kWaveBytes);
  for (std::size_t i = 0; i < kWaveBytes; i += 8) {
    std::uint64_t w = next();
    std::memcpy(r.wave.data() + i, &w, std::min<std::size_t>(8, kWaveBytes - i));
  }
  return r;
}

amuse::Event to_event(const Reading& r) {
  amuse::Event e(r.type);
  e.set("rid", static_cast<std::int64_t>(r.rid));
  e.set("sensor", static_cast<std::int64_t>(r.sensor));
  e.set("patient", static_cast<std::int64_t>(r.patient));
  e.set("hr", r.hr);
  e.set("spo2", r.spo2);
  e.set("temp", r.temp);
  e.set("bp_sys", r.bp_sys);
  e.set("bp_dia", r.bp_dia);
  e.set("wave", r.wave);
  return e;
}

namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
  }
  /// Word-at-a-time over bulk bytes: keeps the per-delivery check cheap.
  void words(const amuse::Bytes& b) {
    std::size_t i = 0;
    for (; i + 8 <= b.size(); i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, b.data() + i, 8);
      u64(w);
    }
    bytes(b.data() + i, b.size() - i);
    u64(b.size());
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_fields(std::string_view type, std::uint64_t rid,
                          std::uint64_t sensor, std::uint64_t patient,
                          double hr, double spo2, double temp,
                          std::int64_t bp_sys, std::int64_t bp_dia,
                          const amuse::Bytes& wave) {
  Fnv f;
  f.bytes(type.data(), type.size());
  f.u64(rid);
  f.u64(sensor);
  f.u64(patient);
  f.f64(hr);
  f.f64(spo2);
  f.f64(temp);
  f.u64(static_cast<std::uint64_t>(bp_sys));
  f.u64(static_cast<std::uint64_t>(bp_dia));
  f.words(wave);
  return f.value();
}

const amuse::Value* typed(const amuse::Event& e, const char* name,
                          amuse::ValueType t) {
  const amuse::Value* v = e.get(name);
  return v != nullptr && v->type() == t ? v : nullptr;
}

}  // namespace

std::uint64_t checksum(const Reading& r) {
  return hash_fields(r.type, r.rid, r.sensor, r.patient, r.hr, r.spo2, r.temp,
                     r.bp_sys, r.bp_dia, r.wave);
}

std::optional<std::uint64_t> checksum(const amuse::Event& e) {
  using amuse::ValueType;
  const auto* rid = typed(e, "rid", ValueType::kInt);
  const auto* sensor = typed(e, "sensor", ValueType::kInt);
  const auto* patient = typed(e, "patient", ValueType::kInt);
  const auto* hr = typed(e, "hr", ValueType::kDouble);
  const auto* spo2 = typed(e, "spo2", ValueType::kDouble);
  const auto* temp = typed(e, "temp", ValueType::kDouble);
  const auto* sys = typed(e, "bp_sys", ValueType::kInt);
  const auto* dia = typed(e, "bp_dia", ValueType::kInt);
  const auto* wave = typed(e, "wave", ValueType::kBytes);
  if (!rid || !sensor || !patient || !hr || !spo2 || !temp || !sys || !dia ||
      !wave) {
    return std::nullopt;
  }
  return hash_fields(e.type(), static_cast<std::uint64_t>(rid->as_int()),
                     static_cast<std::uint64_t>(sensor->as_int()),
                     static_cast<std::uint64_t>(patient->as_int()),
                     hr->as_double(), spo2->as_double(), temp->as_double(),
                     sys->as_int(), dia->as_int(), wave->as_bytes());
}

std::uint64_t rid_of(const amuse::Event& e) {
  return static_cast<std::uint64_t>(e.get_int("rid", 0));
}

}  // namespace perfbench
