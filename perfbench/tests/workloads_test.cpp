// The benchmark's input generators: one seed always yields the same byte
// stream (through io::write_trace / io::write_instance), two seeds differ,
// no generator runs the planner, and the serving waves keep the shape the
// replay relies on.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace chronus::perfbench {
namespace {

class GeneratorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorTest, SameSeedSameBytesOtherSeedOtherBytes) {
  const WorkloadSpec& spec = workload_spec(GetParam());
  const std::string a = input_text(spec, 7);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, input_text(spec, 7));
  EXPECT_NE(a, input_text(spec, 8));
}

// The inputs must not depend on the code under test, so generating them
// never runs the planner.
TEST_P(GeneratorTest, InputsDoNotRunThePlanner) {
  obs::MetricsRegistry reg;
  {
    const obs::ScopedMetrics scope(reg);
    (void)input_text(workload_spec(GetParam()), 7);
  }
  const auto counters = reg.snapshot().counters;
  const auto calls = counters.find("greedy.calls");
  EXPECT_TRUE(calls == counters.end() || calls->second == 0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, GeneratorTest,
                         ::testing::Values("two_rail", "fat_tree", "fig10_6k"));

class ServingWavesTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ServingWavesTest, WavesAreFullContiguousAndSpacedApart) {
  const WorkloadSpec& spec = workload_spec(GetParam());
  const ServingInput in = make_serving_input(spec, 3);
  ASSERT_EQ(in.waves.size(), static_cast<std::size_t>(spec.pass_waves));
  const std::size_t pass = in.waves.size();
  const auto w = static_cast<std::uint64_t>(spec.wave_size);
  for (std::size_t g = 0; g < 2 * pass; ++g) {
    const auto wave = wave_at(in, g);
    ASSERT_EQ(wave.size(), w);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      EXPECT_EQ(wave[i].id, g * w + i);
      EXPECT_GE(wave[i].arrival, wave_start(g));
      // Deadline and execution must end before the next wave starts.
      EXPECT_LT(wave[i].deadline + 60 * sim::kSecond, wave_start(g + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Serving, ServingWavesTest,
                         ::testing::Values("two_rail", "fat_tree"));

TEST(WorkloadSpecTest, UnknownNameThrows) {
  EXPECT_THROW(workload_spec("no_such_workload"), std::invalid_argument);
}

}  // namespace
}  // namespace chronus::perfbench
