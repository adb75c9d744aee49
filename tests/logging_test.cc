#include "util/logging.h"

#include <gtest/gtest.h>

namespace hignn {
namespace {

class LoggingTest : public ::testing::Test {};

// The floor is fixed at kInfo, the lowest level: every message prints.
TEST_F(LoggingTest, RespectsMinimumLevel) {
  ::testing::internal::CaptureStderr();
  HIGNN_LOG(kInfo) << "info appears";
  HIGNN_LOG(kWarning) << "warning appears";
  const std::string captured = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(captured.find("[INFO logging_test.cc:"), std::string::npos);
  EXPECT_NE(captured.find("info appears"), std::string::npos);
  EXPECT_NE(captured.find("[WARN logging_test.cc:"), std::string::npos);
  EXPECT_NE(captured.find("warning appears"), std::string::npos);
}

TEST_F(LoggingTest, IncludesLevelAndLocation) {
  ::testing::internal::CaptureStderr();
  HIGNN_LOG(kError) << "boom";
  const std::string captured = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(captured.find("[ERROR logging_test.cc:"), std::string::npos);
  EXPECT_NE(captured.find("boom"), std::string::npos);
}

TEST_F(LoggingTest, CheckPassesSilently) {
  ::testing::internal::CaptureStderr();
  HIGNN_CHECK_EQ(2 + 2, 4) << "never shown";
  const std::string captured = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(captured.empty());
}

TEST_F(LoggingTest, CheckFailureAborts) {
  EXPECT_DEATH({ HIGNN_CHECK_LT(3, 1) << "impossible"; }, "Check failed");
}

}  // namespace
}  // namespace hignn
