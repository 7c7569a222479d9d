#include "config/cpu_config.hpp"

#include <gtest/gtest.h>

#include "common/require.hpp"
#include "config/baselines.hpp"

namespace adse::config {
namespace {

TEST(CpuConfig, DefaultIsValid) {
  CpuConfig c;
  EXPECT_NO_THROW(validate(c));
  EXPECT_TRUE(is_valid(c));
}

TEST(CpuConfig, AllBaselinesValid) {
  EXPECT_NO_THROW(validate(thunderx2_baseline()));
  EXPECT_NO_THROW(validate(a64fx_like()));
  EXPECT_NO_THROW(validate(minimal_viable()));
  EXPECT_NO_THROW(validate(big_future()));
}

TEST(CpuConfig, BaselineNames) {
  EXPECT_EQ(thunderx2_baseline().name, "thunderx2");
  EXPECT_EQ(a64fx_like().name, "a64fx-like");
}

TEST(CpuConfig, FeatureVectorRoundTrips) {
  const CpuConfig original = a64fx_like();
  const auto features = feature_vector(original);
  const CpuConfig back = config_from_features(features);
  EXPECT_EQ(feature_vector(back), features);
  EXPECT_EQ(back.core.vector_length_bits, original.core.vector_length_bits);
  EXPECT_EQ(back.mem.l2_size_kib, original.mem.l2_size_kib);
  EXPECT_DOUBLE_EQ(back.mem.ram_latency_ns, original.mem.ram_latency_ns);
}

TEST(CpuConfig, FeatureVectorLayoutMatchesParamIds) {
  CpuConfig c;
  c.core.rob_size = 256;
  c.mem.l1_clock_ghz = 3.25;
  const auto f = feature_vector(c);
  EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(ParamId::kRobSize)], 256.0);
  EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(ParamId::kL1Clock)], 3.25);
}

TEST(CpuConfig, ParamNamesRoundTrip) {
  for (std::size_t i = 0; i < kNumParams; ++i) {
    const auto id = static_cast<ParamId>(i);
    EXPECT_EQ(param_from_name(param_name(id)), id);
  }
}

TEST(CpuConfig, ParamNamesAreUnique) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kNumParams; ++i) {
    names.insert(param_name(static_cast<ParamId>(i)));
  }
  EXPECT_EQ(names.size(), kNumParams);
}

TEST(CpuConfig, UnknownParamNameThrows) {
  EXPECT_THROW(param_from_name("bogus"), InvariantError);
}

// Parameterised invalid-field sweep: each case mutates one field out of range
// and expects validation to reject it.
struct InvalidCase {
  const char* label;
  void (*mutate)(CpuConfig&);
};

// Print the label, not gtest's default byte dump: the dump holds the two
// pointers, so the listed test names (and the ctest names discovered from
// them) would change with every process's load address.
void PrintTo(const InvalidCase& c, std::ostream* os) { *os << c.label; }

class ValidateRejects : public ::testing::TestWithParam<InvalidCase> {};

TEST_P(ValidateRejects, OutOfRangeField) {
  CpuConfig c = thunderx2_baseline();
  GetParam().mutate(c);
  EXPECT_THROW(validate(c), InvariantError) << GetParam().label;
  EXPECT_FALSE(is_valid(c));
}

INSTANTIATE_TEST_SUITE_P(
    AllFields, ValidateRejects,
    ::testing::Values(
        InvalidCase{"vl_small", [](CpuConfig& c) { c.core.vector_length_bits = 64; }},
        InvalidCase{"vl_large", [](CpuConfig& c) { c.core.vector_length_bits = 4096; }},
        InvalidCase{"vl_not_pow2", [](CpuConfig& c) { c.core.vector_length_bits = 384; }},
        InvalidCase{"fetch_not_pow2", [](CpuConfig& c) { c.core.fetch_block_bytes = 48; }},
        InvalidCase{"loop_buffer_zero", [](CpuConfig& c) { c.core.loop_buffer_size = 0; }},
        InvalidCase{"gp_too_few", [](CpuConfig& c) { c.core.gp_phys_regs = 37; }},
        InvalidCase{"fp_too_many", [](CpuConfig& c) { c.core.fp_phys_regs = 513; }},
        InvalidCase{"pred_too_few", [](CpuConfig& c) { c.core.pred_phys_regs = 23; }},
        InvalidCase{"cond_too_few", [](CpuConfig& c) { c.core.cond_phys_regs = 7; }},
        InvalidCase{"commit_zero", [](CpuConfig& c) { c.core.commit_width = 0; }},
        InvalidCase{"frontend_65", [](CpuConfig& c) { c.core.frontend_width = 65; }},
        InvalidCase{"lsq_width_zero", [](CpuConfig& c) { c.core.lsq_completion_width = 0; }},
        InvalidCase{"rob_7", [](CpuConfig& c) { c.core.rob_size = 7; }},
        InvalidCase{"lq_3", [](CpuConfig& c) { c.core.load_queue_size = 3; }},
        InvalidCase{"sq_big", [](CpuConfig& c) { c.core.store_queue_size = 1024; }},
        InvalidCase{"load_bw_8", [](CpuConfig& c) { c.core.load_bandwidth_bytes = 8; }},
        InvalidCase{"store_bw_not_pow2", [](CpuConfig& c) { c.core.store_bandwidth_bytes = 48; }},
        InvalidCase{"mem_req_zero", [](CpuConfig& c) { c.core.mem_requests_per_cycle = 0; }},
        InvalidCase{"mem_loads_33", [](CpuConfig& c) { c.core.mem_loads_per_cycle = 33; }},
        InvalidCase{"line_8", [](CpuConfig& c) { c.mem.cache_line_bytes = 8; }},
        InvalidCase{"l1_size_3", [](CpuConfig& c) { c.mem.l1_size_kib = 3; }},
        InvalidCase{"l1_lat_0", [](CpuConfig& c) { c.mem.l1_latency_cycles = 0; }},
        InvalidCase{"l1_lat_9", [](CpuConfig& c) { c.mem.l1_latency_cycles = 9; }},
        InvalidCase{"l1_clock_low", [](CpuConfig& c) { c.mem.l1_clock_ghz = 0.5; }},
        InvalidCase{"l1_assoc_3", [](CpuConfig& c) { c.mem.l1_assoc = 3; }},
        InvalidCase{"l2_size_32", [](CpuConfig& c) { c.mem.l2_size_kib = 32; }},
        InvalidCase{"l2_lat_3", [](CpuConfig& c) { c.mem.l2_latency_cycles = 3; }},
        InvalidCase{"l2_clock_high", [](CpuConfig& c) { c.mem.l2_clock_ghz = 5.0; }},
        InvalidCase{"ram_lat_low", [](CpuConfig& c) { c.mem.ram_latency_ns = 10.0; }},
        InvalidCase{"ram_clock_high", [](CpuConfig& c) { c.mem.ram_clock_ghz = 4.0; }},
        InvalidCase{"prefetch_17", [](CpuConfig& c) { c.mem.prefetch_distance = 17; }}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(CpuConfig, CrossConstraintLoadBandwidthVsVector) {
  CpuConfig c = thunderx2_baseline();
  c.core.vector_length_bits = 512;  // 64 bytes
  c.core.load_bandwidth_bytes = 32;
  c.core.store_bandwidth_bytes = 64;
  EXPECT_THROW(validate(c), InvariantError);
  c.core.load_bandwidth_bytes = 64;
  EXPECT_NO_THROW(validate(c));
}

TEST(CpuConfig, CrossConstraintStoreBandwidthVsVector) {
  CpuConfig c = thunderx2_baseline();
  c.core.vector_length_bits = 256;  // 32 bytes
  c.core.store_bandwidth_bytes = 16;
  EXPECT_THROW(validate(c), InvariantError);
}

TEST(CpuConfig, CrossConstraintL2BiggerThanL1) {
  CpuConfig c = thunderx2_baseline();
  c.mem.l1_size_kib = 128;
  c.mem.l2_size_kib = 128;
  EXPECT_THROW(validate(c), InvariantError);
  c.mem.l2_size_kib = 256;
  EXPECT_NO_THROW(validate(c));
}

TEST(CpuConfig, CrossConstraintL2SlowerThanL1) {
  CpuConfig c = thunderx2_baseline();
  c.mem.l1_latency_cycles = 8;
  c.mem.l2_latency_cycles = 8;
  EXPECT_THROW(validate(c), InvariantError);
  c.mem.l2_latency_cycles = 9;
  EXPECT_NO_THROW(validate(c));
}

TEST(CpuConfig, CrossConstraintL1GeometryFeasible) {
  CpuConfig c = thunderx2_baseline();
  c.mem.l1_size_kib = 4;
  c.mem.cache_line_bytes = 256;
  c.mem.l1_assoc = 16;  // 4096 == 256*16: exactly one set -> allowed
  EXPECT_NO_THROW(validate(c));
}

TEST(CpuConfig, GpRegisters38IsAllowed) {
  CpuConfig c = thunderx2_baseline();
  c.core.gp_phys_regs = 38;
  c.core.fp_phys_regs = 38;
  EXPECT_NO_THROW(validate(c));
}

}  // namespace
}  // namespace adse::config
