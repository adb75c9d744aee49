#include "util/flags.h"

#include <cstdlib>

#include "util/string_util.h"

namespace hignn {

Result<CommandLine> CommandLine::Parse(int argc, const char* const* argv) {
  CommandLine cl;
  for (int k = 1; k < argc; ++k) {
    const std::string token = argv[k];
    if (token == "--") {
      return Status::InvalidArgument("lone '--' is not a valid flag");
    }
    if (StartsWith(token, "--")) {
      const std::string body = token.substr(2);
      if (body.empty()) {
        return Status::InvalidArgument("empty flag name");
      }
      const size_t eq = body.find('=');
      if (eq != std::string::npos) {
        cl.flags_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (k + 1 < argc && !StartsWith(argv[k + 1], "--")) {
        cl.flags_[body] = argv[++k];
      } else {
        cl.flags_[body] = "";  // valueless switch
      }
      continue;
    }
    if (cl.command_.empty()) {
      cl.command_ = token;
    } else {
      cl.args_.push_back(token);
    }
  }
  return cl;
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& default_value) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

Result<int64_t> CommandLine::GetInt(const std::string& name,
                                    int64_t default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("--%s expects an integer, got '%s'", name.c_str(),
                  it->second.c_str()));
  }
  return static_cast<int64_t>(value);
}

Result<double> CommandLine::GetDouble(const std::string& name,
                                      double default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("--%s expects a number, got '%s'", name.c_str(),
                  it->second.c_str()));
  }
  return value;
}

bool CommandLine::GetBool(const std::string& name, bool default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  if (it->second.empty() || it->second == "true" || it->second == "1") {
    return true;
  }
  return false;
}

}  // namespace hignn
