#include "checker.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "bus/replication.hpp"
#include "pubsub/codec.hpp"
#include "reading.hpp"

namespace perfbench {
namespace {
constexpr std::size_t kMaxMessages = 20;
}  // namespace

Checker::Checker(std::size_t recipients, std::size_t senders)
    : senders_(senders), last_rid_(recipients * senders, 0) {}

void Checker::expect(std::uint64_t rid, std::uint32_t sender,
                     std::uint64_t checksum, std::uint64_t recipients,
                     std::vector<ExpectedAlarm> alarms,
                     Clock::time_point published) {
  attempted_ += static_cast<std::uint64_t>(std::popcount(recipients)) +
                alarms.size();
  Pending& p = pending_[rid];
  p.published = published;
  p.checksum = checksum;
  p.expect = recipients;
  p.got = 0;
  p.sender = sender;
  p.alarms = std::move(alarms);
}

void Checker::error(std::string what) {
  ++errors_;
  if (messages_.size() < kMaxMessages) messages_.push_back(std::move(what));
}

Checker::Outcome Checker::settle(
    std::unordered_map<std::uint64_t, Pending>::iterator it) {
  Outcome out;
  out.published = it->second.published;
  if (it->second.got == it->second.expect && it->second.alarms.empty()) {
    pending_.erase(it);
    out.completed = true;
  }
  return out;
}

Checker::Outcome Checker::deliver(std::uint32_t recipient,
                                  const amuse::Event& event) {
  std::uint64_t rid = rid_of(event);
  auto it = pending_.find(rid);
  if (it == pending_.end()) {
    error("member " + std::to_string(recipient) + " received reading " +
          std::to_string(rid) +
          ", which was not outstanding (duplicate, phantom or denied)");
    return {};
  }
  Pending& p = it->second;
  std::uint64_t bit = std::uint64_t{1} << recipient;
  if ((p.expect & bit) == 0) {
    error("member " + std::to_string(recipient) + " received reading " +
          std::to_string(rid) + ", which its filters do not select");
    return {};
  }
  if ((p.got & bit) != 0) {
    error("member " + std::to_string(recipient) + " received reading " +
          std::to_string(rid) + " twice");
    return {};
  }
  bool good = true;
  std::uint64_t& last = last_rid_[recipient * senders_ + p.sender];
  if (rid < last) {
    error("member " + std::to_string(recipient) + " received reading " +
          std::to_string(rid) + " after reading " + std::to_string(last) +
          " of the same sensor");
    good = false;
  } else {
    last = rid;
  }
  std::optional<std::uint64_t> sum = checksum(event);
  if (!sum || *sum != p.checksum) {
    error("member " + std::to_string(recipient) + " received reading " +
          std::to_string(rid) + " with a payload that differs from the "
          "generator's");
    good = false;
  }
  if (!good) ++failed_;
  p.got |= bit;
  Outcome out = settle(it);
  out.expected = good;
  return out;
}

Checker::Outcome Checker::alarm(std::uint64_t rid, std::uint32_t policy,
                                double value) {
  auto it = pending_.find(rid);
  if (it == pending_.end()) {
    error("alarm of policy " + std::to_string(policy) + " for reading " +
          std::to_string(rid) + ", which was not outstanding");
    return {};
  }
  auto& alarms = it->second.alarms;
  auto a = std::find_if(alarms.begin(), alarms.end(),
                        [&](const ExpectedAlarm& x) { return x.policy == policy; });
  if (a == alarms.end()) {
    error("alarm of policy " + std::to_string(policy) + " for reading " +
          std::to_string(rid) + " that its thresholds do not raise");
    return {};
  }
  bool good = a->value == value;
  if (!good) {
    error("alarm of policy " + std::to_string(policy) + " for reading " +
          std::to_string(rid) + " carries the wrong value");
    ++failed_;
  }
  alarms.erase(a);
  Outcome out = settle(it);
  out.expected = good;
  return out;
}

void Checker::check(bool ok, const std::string& what) {
  if (!ok) error(what);
}

void Checker::check_count(const std::string& what, std::uint64_t expected,
                          std::uint64_t got) {
  if (expected != got) {
    error(what + ": expected " + std::to_string(expected) + ", got " +
          std::to_string(got));
  }
}

void Checker::check_bytes(const std::string& what, amuse::BytesView a,
                          amuse::BytesView b) {
  if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
    error(what + " differ (" + std::to_string(a.size()) + " vs " +
          std::to_string(b.size()) + " bytes)");
  }
}

void Checker::finish() {
  for (const auto& [rid, p] : pending_) {
    auto missing = static_cast<std::uint64_t>(std::popcount(p.expect & ~p.got));
    failed_ += missing + p.alarms.size();
    error("reading " + std::to_string(rid) + ": " + std::to_string(missing) +
          " deliveries and " + std::to_string(p.alarms.size()) +
          " alarms never arrived");
  }
  pending_.clear();
}

bool checker_self_test(std::string* report) {
  const auto t0 = Clock::now();
  std::vector<Reading> readings;
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    readings.push_back(make_reading(7, rid, 0, 1, "vitals.reading"));
  }
  // Two members receive every reading; reading 2 raises alarm policy 0.
  auto prepare = [&](Checker& c) {
    for (const Reading& r : readings) {
      std::vector<ExpectedAlarm> alarms;
      if (r.rid == 2) alarms.push_back({0, r.hr});
      c.expect(r.rid, 0, checksum(r), 0b11, alarms, t0);
    }
  };
  auto clean_stream = [&](Checker& c, std::uint32_t member) {
    for (const Reading& r : readings) c.deliver(member, to_event(r));
  };
  auto clean_alarm = [&](Checker& c) { c.alarm(2, 0, readings[1].hr); };

  struct Case {
    const char* name;
    std::function<void(Checker&)> feed;
  };
  const std::vector<Case> faults = {
      {"duplicated delivery",
       [&](Checker& c) {
         clean_stream(c, 0);
         c.deliver(0, to_event(readings[0]));
         clean_stream(c, 1);
         clean_alarm(c);
       }},
      {"reordered delivery",
       [&](Checker& c) {
         c.deliver(0, to_event(readings[1]));
         c.deliver(0, to_event(readings[0]));
         c.deliver(0, to_event(readings[2]));
         clean_stream(c, 1);
         clean_alarm(c);
       }},
      {"dropped delivery",
       [&](Checker& c) {
         clean_stream(c, 0);
         c.deliver(1, to_event(readings[0]));
         c.deliver(1, to_event(readings[1]));
         clean_alarm(c);
       }},
      {"corrupted delivery",
       [&](Checker& c) {
         clean_stream(c, 0);
         amuse::Event bad = to_event(readings[1]);
         bad.set("hr", readings[1].hr + 1);
         c.deliver(1, to_event(readings[0]));
         c.deliver(1, bad);
         c.deliver(1, to_event(readings[2]));
         clean_alarm(c);
       }},
      {"missing alarm",
       [&](Checker& c) {
         clean_stream(c, 0);
         clean_stream(c, 1);
       }},
      {"extra alarm",
       [&](Checker& c) {
         clean_stream(c, 0);
         clean_stream(c, 1);
         clean_alarm(c);
         c.alarm(3, 1, readings[2].spo2);
       }},
      {"delivered guest reading",
       [&](Checker& c) {
         clean_stream(c, 0);
         clean_stream(c, 1);
         clean_alarm(c);
         c.deliver(0, to_event(make_reading(7, 1ULL << 40, 9, 1,
                                            "vitals.reading")));
       }},
      {"standby mirror differing from the core",
       [&](Checker& c) {
         clean_stream(c, 0);
         clean_stream(c, 1);
         clean_alarm(c);
         amuse::ReplState core;
         core.epoch = 1;
         core.spool.push_back({1, 1, amuse::encode_event(to_event(readings[0]))});
         amuse::ReplState mirror = core;
         mirror.spool.back().event.back() ^= 1;
         c.check_bytes("standby mirror and core state", core.encode(),
                       mirror.encode());
       }},
      {"bus delivery count differing from the handlers'",
       [&](Checker& c) {
         clean_stream(c, 0);
         clean_stream(c, 1);
         clean_alarm(c);
         c.check_count("bus deliveries", 6, 5);
       }},
  };

  bool all = true;
  Checker clean(2, 1);
  prepare(clean);
  clean_stream(clean, 0);
  clean_stream(clean, 1);
  clean_alarm(clean);
  clean.finish();
  if (!clean.ok() || clean.attempted() != 7) {
    all = false;
    if (report) *report += "clean run rejected; ";
  }
  for (const Case& f : faults) {
    Checker c(2, 1);
    prepare(c);
    f.feed(c);
    c.finish();
    if (c.ok()) {
      all = false;
      if (report) *report += std::string(f.name) + " accepted; ";
    }
  }
  return all;
}

}  // namespace perfbench
