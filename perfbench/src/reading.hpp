// Seeded vitals readings: what the benchmark publishes and how it recognises
// them again at a subscriber, independently of the program's own codecs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "pubsub/event.hpp"

namespace perfbench {

/// One generated vitals reading. Every field is a pure function of
/// (seed, rid), so a reading can be regenerated for replays and checks.
struct Reading {
  std::uint64_t rid = 0;      ///< benchmark-wide reading id, from 1
  std::uint32_t sensor = 0;   ///< index of the publishing sensor
  std::uint32_t patient = 0;
  std::string type;           ///< event type it is published under
  double hr = 0;              ///< whole beats per minute, 50..149
  double spo2 = 0;            ///< whole percent, 85..100
  double temp = 0;
  std::int64_t bp_sys = 0;
  std::int64_t bp_dia = 0;
  amuse::Bytes wave;          ///< waveform snippet, pads the reading to ~250 B
};

/// Bytes of waveform per reading: the encoded event is ~250 B on the wire.
inline constexpr std::size_t kWaveBytes = 120;

[[nodiscard]] Reading make_reading(std::uint64_t seed, std::uint64_t rid,
                                   std::uint32_t sensor, std::uint32_t patient,
                                   std::string type);

[[nodiscard]] amuse::Event to_event(const Reading& r);

/// FNV-1a over the reading's fields, computed from the generator's struct.
[[nodiscard]] std::uint64_t checksum(const Reading& r);

/// The same hash recomputed from a received event; nullopt when a field is
/// missing or has the wrong type (a corrupted delivery).
[[nodiscard]] std::optional<std::uint64_t> checksum(const amuse::Event& e);

/// The reading id carried by an event (0 when absent).
[[nodiscard]] std::uint64_t rid_of(const amuse::Event& e);

/// splitmix64: the benchmark's own deterministic mixer.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

}  // namespace perfbench
