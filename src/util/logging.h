#ifndef HIGNN_UTIL_LOGGING_H_
#define HIGNN_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace hignn {

/// \brief Severity levels for the library logger, ordered by importance.
/// The floor is fixed at kInfo, the lowest level, so every message prints.
enum class LogLevel { kInfo, kWarning, kError, kFatal };

namespace internal_logging {

/// Stream-style log message emitter. Writes to stderr on destruction;
/// kFatal additionally aborts the process.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace hignn

/// Usage: HIGNN_LOG(kInfo) << "trained " << n << " batches";
#define HIGNN_LOG(level)                                                    \
  ::hignn::internal_logging::LogMessage(::hignn::LogLevel::level, __FILE__, \
                                        __LINE__)                           \
      .stream()

/// Invariant check: logs the failed condition and aborts when false.
/// Active in all build modes; use for programmer errors, not user input.
#define HIGNN_CHECK(cond)                                                    \
  if (cond)                                                                  \
    ;                                                                        \
  else                                                                       \
    ::hignn::internal_logging::LogMessage(::hignn::LogLevel::kFatal,         \
                                          __FILE__, __LINE__)                \
            .stream()                                                        \
        << "Check failed: " #cond " "

#define HIGNN_CHECK_EQ(a, b) HIGNN_CHECK((a) == (b))
#define HIGNN_CHECK_NE(a, b) HIGNN_CHECK((a) != (b))
#define HIGNN_CHECK_LT(a, b) HIGNN_CHECK((a) < (b))
#define HIGNN_CHECK_LE(a, b) HIGNN_CHECK((a) <= (b))
#define HIGNN_CHECK_GT(a, b) HIGNN_CHECK((a) > (b))
#define HIGNN_CHECK_GE(a, b) HIGNN_CHECK((a) >= (b))

#endif  // HIGNN_UTIL_LOGGING_H_
