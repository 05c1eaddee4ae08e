#ifndef TPIIN_COMMON_STRING_UTIL_H_
#define TPIIN_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace tpiin {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any run of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a base-10 signed integer with strtoll's syntax (surrounding
/// whitespace, one optional '+' or '-'); the whole string must be
/// consumed, and overflow is OutOfRange. Allocates only for an error.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a double with strtod's syntax (hex, inf and nan included); the
/// whole string must be consumed, and overflow or underflow is
/// OutOfRange. Allocates only for an error or a literal over 63 bytes.
Result<double> ParseDouble(std::string_view s);

/// Renders an integer with thousands separators: 1234567 -> "1,234,567".
std::string FormatWithCommas(int64_t value);

/// Renders `value` with fixed `digits` decimal places.
std::string FormatDouble(double value, int digits);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// True iff `s` is well-formed UTF-8 (rejects overlong encodings,
/// surrogate code points, and code points above U+10FFFF). ASCII is a
/// subset, so pure-ASCII inputs always pass. Ingest uses this to keep
/// mojibake out of label fields.
bool IsValidUtf8(std::string_view s);

}  // namespace tpiin

#endif  // TPIIN_COMMON_STRING_UTIL_H_
