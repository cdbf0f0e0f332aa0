// Every correctness check of the benchmark must fire: each test feeds a
// check a tampered result and expects it to be rejected, next to the
// untampered result it accepts.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "checks.hpp"
#include "peerhood/session_store.hpp"
#include "profiler.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {
namespace {

using peerhood::scenario::ScenarioMetrics;
using peerhood::scenario::SessionMetrics;

ScenarioMetrics one_session(std::uint64_t sent, std::uint64_t received) {
  ScenarioMetrics metrics;
  SessionMetrics session;
  session.connected = true;
  session.sent = sent;
  session.received = received;
  metrics.sessions.push_back(session);
  return metrics;
}

ScenarioMetrics chaos_metrics() {
  ScenarioMetrics m = one_session(100, 100);
  m.fault_stats.loss_drops = 5;
  m.fault_stats.corrupted = 1;
  m.fault_stats.duplicated = 2;
  m.fault_stats.reordered = 3;
  m.fault_stats.burst_entries = 1;
  m.fault_stats.node_crashes = 1;
  m.corrupt_frames_dropped = 1;
  m.restart_resumes = 1;
  return m;
}

TEST(ScenarioChecks, DuplicatedCounterIsRejected) {
  ScenarioMetrics m = one_session(10, 10);
  EXPECT_EQ(check_exactly_once(m), "");
  EXPECT_EQ(check_plain_sessions(m, 3), "");
  m.sessions[0].dup_or_reorder = 1;
  EXPECT_NE(check_exactly_once(m), "");
  EXPECT_NE(check_plain_sessions(m, 3), "");
}

TEST(ScenarioChecks, SkippedCounterIsRejectedOnReliableSessions) {
  ScenarioMetrics m = one_session(10, 9);
  m.sessions[0].gaps = 1;
  EXPECT_NE(check_exactly_once(m), "");
  // A plain session may lose a frame for good.
  EXPECT_EQ(check_plain_sessions(m, 3), "");
}

TEST(ScenarioChecks, UnaccountedMessagesBeyondTheInflightBoundAreRejected) {
  ScenarioMetrics m = one_session(10, 7);
  EXPECT_EQ(check_plain_sessions(m, 3), "");
  m.sessions[0].received = 6;
  EXPECT_NE(check_plain_sessions(m, 3), "");
  m = one_session(10, 13);  // in flight across the body's start
  EXPECT_EQ(check_plain_sessions(m, 3), "");
  m.sessions[0].received = 14;
  EXPECT_NE(check_plain_sessions(m, 3), "");
  m = one_session(10, 10);
  m.sessions[0].connected = false;
  EXPECT_NE(check_plain_sessions(m, 3), "");
}

TEST(ScenarioChecks, MoreReceivedThanSentIsRejected) {
  EXPECT_NE(check_exactly_once(one_session(10, 11)), "");
}

TEST(ScenarioChecks, EveryFaultKindMustFire) {
  EXPECT_EQ(check_chaos_coverage(chaos_metrics()), "");
  ScenarioMetrics m = chaos_metrics();
  m.fault_stats.corrupted = 0;
  EXPECT_NE(check_chaos_coverage(m), "");
  m = chaos_metrics();
  m.fault_stats.node_crashes = 0;
  EXPECT_NE(check_chaos_coverage(m), "");
  m = chaos_metrics();
  m.restart_resumes = 0;
  EXPECT_NE(check_chaos_coverage(m), "");
}

TEST(ScenarioChecks, DivergingReplayIsRejected) {
  const auto run = [] {
    peerhood::scenario::ScenarioSpec spec =
        peerhood::scenario::corridor_walk(3, /*predictive=*/true);
    spec.shards = 1;
    peerhood::scenario::ScenarioRunner runner{spec};
    EXPECT_TRUE(runner.setup().ok());
    runner.run();
    return runner.metrics();
  };
  const ScenarioMetrics a = run();
  const ScenarioMetrics b = run();
  EXPECT_EQ(diff_metrics(a, b), "");

  ScenarioMetrics tampered = b;
  tampered.sessions[0].outage_s += 1e-9;
  EXPECT_NE(diff_metrics(a, tampered), "");
  tampered = b;
  tampered.fault_stats.reordered += 1;
  EXPECT_NE(diff_metrics(a, tampered), "");
  tampered = b;
  tampered.net_stats.frames_checked += 1;
  EXPECT_NE(diff_metrics(a, tampered), "");
  tampered = b;
  tampered.sessions.pop_back();
  EXPECT_NE(diff_metrics(a, tampered), "");
}

TEST(StreamCheck, AcceptsAnOrderedIntactStream) {
  StreamCheck check;
  for (std::uint64_t seq = 1; seq <= 100; ++seq) {
    ASSERT_TRUE(check.accept(make_payload(7, seq, 64 + seq))) << check.error();
  }
  EXPECT_EQ(check.delivered(), 100u);
}

TEST(StreamCheck, DuplicatedPayloadIsRejected) {
  StreamCheck check;
  ASSERT_TRUE(check.accept(make_payload(7, 1, 64)));
  EXPECT_FALSE(check.accept(make_payload(7, 1, 64)));
  EXPECT_NE(check.error(), "");
}

TEST(StreamCheck, SkippedPayloadIsRejected) {
  StreamCheck check;
  ASSERT_TRUE(check.accept(make_payload(7, 1, 64)));
  EXPECT_FALSE(check.accept(make_payload(7, 3, 64)));
}

TEST(StreamCheck, FlippedByteIsRejected) {
  for (const std::size_t at : {std::size_t{0}, std::size_t{9},
                               kPayloadHeader, std::size_t{1023}}) {
    peerhood::Bytes payload = make_payload(7, 1, 1024);
    payload[at] ^= 0x01;
    StreamCheck check;
    EXPECT_FALSE(check.accept(payload)) << "flipped byte " << at;
  }
  StreamCheck check;
  EXPECT_FALSE(check.accept(peerhood::Bytes(kPayloadHeader - 1, 0)));
}

TEST(RawCounterCheck, MissingCountersAreCountedNotRejected) {
  RawCounterCheck check;
  for (const std::uint64_t counter : {1, 2, 4, 5}) {
    ASSERT_TRUE(check.accept(make_raw_payload(counter), 5)) << check.error();
  }
  EXPECT_EQ(check.missing(5), std::vector<std::uint64_t>{3});
  EXPECT_EQ(check.missing(7), (std::vector<std::uint64_t>{3, 6, 7}));
  EXPECT_EQ(check.error(), "");
}

TEST(RawCounterCheck, DuplicatedOrReorderedCounterIsRejected) {
  RawCounterCheck duplicated;
  ASSERT_TRUE(duplicated.accept(make_raw_payload(1), 9));
  EXPECT_FALSE(duplicated.accept(make_raw_payload(1), 9));
  RawCounterCheck reordered;
  ASSERT_TRUE(reordered.accept(make_raw_payload(3), 9));
  EXPECT_FALSE(reordered.accept(make_raw_payload(2), 9));
  RawCounterCheck unsent;
  EXPECT_FALSE(unsent.accept(make_raw_payload(10), 9));
}

TEST(RawCounterCheck, FlippedByteIsRejected) {
  for (const std::size_t at : {std::size_t{0}, std::size_t{8},
                               kRawPayloadSize - 1}) {
    peerhood::Bytes payload = make_raw_payload(13);
    payload[at] ^= 0x01;
    RawCounterCheck check;
    EXPECT_FALSE(check.accept(payload, 1000)) << "flipped byte " << at;
  }
  RawCounterCheck check;
  EXPECT_FALSE(check.accept(peerhood::Bytes(kRawPayloadSize - 1, 0), 1000));
}

TEST(JournalCheck, StaleFrontierIsRejected) {
  const std::string path = "phbench_selftest.journal";
  std::remove(path.c_str());
  {
    peerhood::SessionStore store;
    store.bind_file(path);
    store.put(peerhood::SessionRecord{5, peerhood::MacAddress::from_index(1),
                                      "rsink", 1, 41});
  }
  peerhood::SessionStore on_disk;
  on_disk.bind_file(path);
  const peerhood::SessionRecord* record = on_disk.find(5);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(check_journal_frontier(record->expected, 40), "");
  EXPECT_NE(check_journal_frontier(record->expected, 41), "");  // stale
  EXPECT_NE(check_journal_frontier(record->expected, 39), "");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(Profiler, AttributionMustAgreeWithTheSampleCounts) {
  LayerTimes times;
  times.samples = 100;
  times.hits[kMedium] = 60;
  times.hits[kEventCore] = 40;
  times.ns[kMedium] = 600'000'000;
  times.ns[kEventCore] = 400'000'000;
  EXPECT_EQ(check_attribution(times), "");
  // Half the medium's time came with a single late sample.
  times.ns[kEventCore] = 100'000'000;
  times.ns[kMedium] = 900'000'000;
  EXPECT_NE(check_attribution(times), "");
  EXPECT_NE(check_attribution(LayerTimes{}), "");
}

TEST(Profiler, ChargesLambdasAndHelpersToTheirLayers) {
  EXPECT_EQ(Profiler::classify("peerhood::sim::RadioMedium::deliver(int)"),
            kMedium);
  EXPECT_EQ(Profiler::classify(
                "peerhood::sim::InlineCallable::InlineModel<peerhood::net::"
                "SimNetwork::connect(int)::{lambda()#1}>::invoke(void*)"),
            kSimNetwork);
  EXPECT_EQ(Profiler::classify(
                "std::_Function_handler<void (peerhood::Bytes const&), "
                "peerhood::scenario::ScenarioRunner::setup()::{lambda(peerhood::"
                "Bytes const&)#2}>::_M_invoke(std::_Any_data const&, "
                "peerhood::Bytes const&)"),
            kScenario);
  EXPECT_EQ(Profiler::classify("peerhood::net::(anonymous namespace)::"
                               "PosixConnection::write(int)"),
            kPosix);
  EXPECT_EQ(Profiler::classify("void peerhood::ByteWriter::u64(unsigned long)"),
            -1);
  EXPECT_EQ(Profiler::classify("std::vector<int>::push_back(int const&)"), -1);
  EXPECT_EQ(Profiler::classify("peerhood::Plugin::on_fetch_response(int)"),
            kDiscoveryMerge);
  EXPECT_EQ(Profiler::classify("peerhood::SnapshotCache::respond(int)"),
            kDiscoveryEncode);
}

}  // namespace
}  // namespace perfbench
