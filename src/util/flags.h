#ifndef HIGNN_UTIL_FLAGS_H_
#define HIGNN_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace hignn {

/// \brief Minimal command-line parser for the CLI tool:
/// `program <command> [--flag=value | --flag value | --switch] [args...]`.
///
/// Flags may appear anywhere after the command; everything else is a
/// positional argument. Unknown flags are kept (callers validate).
class CommandLine {
 public:
  /// \brief Parses argv (argv[0] is skipped). Returns an error for a
  /// malformed flag such as a lone "--".
  static Result<CommandLine> Parse(int argc, const char* const* argv);

  /// \brief First positional token, "" if none (conventionally the
  /// subcommand).
  const std::string& command() const { return command_; }

  /// \brief Positional arguments after the command.
  const std::vector<std::string>& args() const { return args_; }

  /// \brief String flag with default.
  std::string GetString(const std::string& name,
                        const std::string& default_value = "") const;

  /// \brief Integer flag; returns an error if present but unparsable.
  Result<int64_t> GetInt(const std::string& name,
                         int64_t default_value) const;

  /// \brief Double flag; returns an error if present but unparsable.
  Result<double> GetDouble(const std::string& name,
                           double default_value) const;

  /// \brief Boolean switch: `--x` or `--x=true/false`.
  bool GetBool(const std::string& name, bool default_value = false) const;

 private:
  std::string command_;
  std::vector<std::string> args_;
  std::map<std::string, std::string> flags_;  // "" for valueless switches
};

}  // namespace hignn

#endif  // HIGNN_UTIL_FLAGS_H_
