#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace hignn {

namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Trim the path down to the basename for readability.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
  std::fflush(stderr);
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal_logging
}  // namespace hignn
