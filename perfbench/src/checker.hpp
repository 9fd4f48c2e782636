// Output checker: compares what the members' handlers received against
// what the benchmark itself computed from its generated readings.
//
// It streams: a reading is tracked from its publish until every expected
// (reading, recipient) delivery and every expected alarm of it arrived, so
// memory stays bounded by the closed-loop window however long the run.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "harness.hpp"
#include "pubsub/event.hpp"

namespace perfbench {

/// An alarm the benchmark expects for a reading: which threshold policy
/// fires, and the attribute value the alarm must carry.
struct ExpectedAlarm {
  std::uint32_t policy = 0;
  double value = 0;
};

class Checker {
 public:
  /// `recipients` ≤ 64 subscribing members, `senders` publishing sensors.
  Checker(std::size_t recipients, std::size_t senders);

  /// A reading was published; `recipients` is the bit set of members that
  /// must receive it (each exactly once), `alarms` the alarms it must raise.
  void expect(std::uint64_t rid, std::uint32_t sender, std::uint64_t checksum,
              std::uint64_t recipients, std::vector<ExpectedAlarm> alarms,
              Clock::time_point published);

  struct Outcome {
    bool completed = false;  ///< this was the reading's last expected arrival
    bool expected = false;   ///< a correct, expected delivery
    Clock::time_point published{};
  };
  /// A reading arrived at member `recipient`'s handler.
  Outcome deliver(std::uint32_t recipient, const amuse::Event& event);
  /// An alarm for reading `rid`, raised by `policy`, carrying `value`.
  Outcome alarm(std::uint64_t rid, std::uint32_t policy, double value);

  /// Run-end checks on state the benchmark can inspect directly.
  void check(bool ok, const std::string& what);
  void check_count(const std::string& what, std::uint64_t expected,
                   std::uint64_t got);
  void check_bytes(const std::string& what, amuse::BytesView a,
                   amuse::BytesView b);

  /// Counts every delivery and alarm still missing as failed.
  void finish();

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool ok() const { return errors_ == 0 && failed_ == 0; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  struct Pending {
    Clock::time_point published{};
    std::uint64_t checksum = 0;
    std::uint64_t expect = 0;
    std::uint64_t got = 0;
    std::uint32_t sender = 0;
    std::vector<ExpectedAlarm> alarms;
  };
  void error(std::string what);
  Outcome settle(std::unordered_map<std::uint64_t, Pending>::iterator it);

  std::size_t senders_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::vector<std::uint64_t> last_rid_;  // [recipient * senders + sender]
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t errors_ = 0;
  std::vector<std::string> messages_;
};

/// Feeds the checker one faulty record of every kind it must reject (and
/// one clean run it must accept). Returns false and says which check did
/// not fire when one of them passes a fault.
[[nodiscard]] bool checker_self_test(std::string* report);

}  // namespace perfbench
