#ifndef HIGNN_UTIL_STRING_UTIL_H_
#define HIGNN_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace hignn {

/// \brief Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// \brief Splits on ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// \brief Joins strings with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Strips leading/trailing ASCII whitespace.
std::string Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// \brief printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// \brief Human-friendly count, e.g. 1234567 -> "1,234,567".
std::string WithThousandsSep(long long value);

}  // namespace hignn

#endif  // HIGNN_UTIL_STRING_UTIL_H_
