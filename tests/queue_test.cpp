// Tests for the fluid link-queue/loss analysis.
#include <gtest/gtest.h>

#include "sim/queue.hpp"

namespace chronus::sim {
namespace {

SimLink make_link(double capacity_bps) {
  SimLink l;
  l.capacity_bps = capacity_bps;
  return l;
}

TEST(QueueT, WithinCapacityNothingQueues) {
  const SimLink l = make_link(100e6);
  util::StepFunction offered;
  offered.add(0, 10 * kSecond, 80e6);
  const QueueStats s = analyze_queue(l, offered, 1e6, 0, 10 * kSecond);
  EXPECT_DOUBLE_EQ(s.peak_queue_bytes, 0.0);
  EXPECT_DOUBLE_EQ(s.dropped_bytes, 0.0);
  EXPECT_EQ(s.backlogged_time, 0);
}

TEST(QueueT, TransientBurstAbsorbedByBuffer) {
  const SimLink l = make_link(100e6);
  util::StepFunction offered;
  offered.add(0, 20 * kSecond, 100e6);
  // 1 second of 50 Mbps excess = 6.25 MB, within a 10 MB buffer.
  offered.add(5 * kSecond, 6 * kSecond, 50e6);
  const QueueStats s = analyze_queue(l, offered, 10e6, 0, 20 * kSecond);
  EXPECT_NEAR(s.peak_queue_bytes, 6.25e6, 1.0);
  EXPECT_DOUBLE_EQ(s.dropped_bytes, 0.0);
  // Backlog persists past the burst until drained; at net -0 afterwards
  // (offered == capacity) it never drains within the window.
  EXPECT_GT(s.backlogged_time, 1 * kSecond);
}

TEST(QueueT, BurstDrainsWhenLoadDrops) {
  const SimLink l = make_link(100e6);
  util::StepFunction offered;
  offered.add(0, 1 * kSecond, 150e6);  // 1s at +50 Mbps: 6.25 MB queued
  offered.add(1 * kSecond, 10 * kSecond, 50e6);  // then -50 Mbps
  const QueueStats s = analyze_queue(l, offered, 100e6, 0, 10 * kSecond);
  EXPECT_NEAR(s.peak_queue_bytes, 6.25e6, 1.0);
  EXPECT_DOUBLE_EQ(s.dropped_bytes, 0.0);
  // 1 s of fill + 1 s of drain.
  EXPECT_NEAR(static_cast<double>(s.backlogged_time), 2e6, 1e4);
}

TEST(QueueT, OverflowDrops) {
  const SimLink l = make_link(100e6);
  // 2 seconds of 100 Mbps excess = 25 MB against a 5 MB buffer:
  // the buffer fills after 0.4 s; the remaining 1.6 s of excess is lost.
  util::StepFunction offered;
  offered.add(0, 2 * kSecond, 200e6);
  const QueueStats s = analyze_queue(l, offered, 5e6, 0, 4 * kSecond);
  EXPECT_NEAR(s.peak_queue_bytes, 5e6, 1.0);
  EXPECT_NEAR(s.dropped_bytes, 100e6 * 1.6 / 8.0, 1e3);
  EXPECT_NEAR(static_cast<double>(s.dropping_time), 1.6e6, 1e4);
}

TEST(QueueT, ZeroBufferDropsAllExcess) {
  const SimLink l = make_link(100e6);
  util::StepFunction offered;
  offered.add(0, 1 * kSecond, 160e6);
  const QueueStats s = analyze_queue(l, offered, 0.0, 0, 2 * kSecond);
  EXPECT_NEAR(s.dropped_bytes, 60e6 / 8.0, 1e3);
  EXPECT_DOUBLE_EQ(s.peak_queue_bytes, 0.0);
}

TEST(QueueT, WindowRestrictsAnalysis) {
  const SimLink l = make_link(100e6);
  util::StepFunction offered;
  offered.add(0, 10 * kSecond, 200e6);
  const QueueStats early = analyze_queue(l, offered, 1e9, 0, 1 * kSecond);
  const QueueStats late = analyze_queue(l, offered, 1e9, 0, 2 * kSecond);
  EXPECT_LT(early.peak_queue_bytes, late.peak_queue_bytes);
}

}  // namespace
}  // namespace chronus::sim
