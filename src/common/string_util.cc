#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tpiin {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty integer literal");
  // strtoll's base-10 syntax: one optional sign, then digits. from_chars
  // takes a '-' but not a '+', so strip a '+' that a digit follows.
  const std::string_view digits =
      s.size() > 1 && s[0] == '+' && s[1] != '-' ? s.substr(1) : s;
  int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer out of range: " + std::string(s));
  }
  if (ec != std::errc() || end != digits.data() + digits.size()) {
    return Status::InvalidArgument("not an integer: " + std::string(s));
  }
  return value;
}

Result<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty double literal");
  // strtod wants a NUL-terminated string; short literals stay on the
  // stack.
  char local[64];
  std::string long_literal;
  const char* text = local;
  if (s.size() < sizeof(local)) {
    std::memcpy(local, s.data(), s.size());
    local[s.size()] = '\0';
  } else {
    long_literal.assign(s);
    text = long_literal.c_str();
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("double out of range: " + std::string(s));
  }
  if (end != text + s.size()) {
    return Status::InvalidArgument("not a double: " + std::string(s));
  }
  return v;
}

std::string FormatWithCommas(int64_t value) {
  char digits[32];
  std::snprintf(digits, sizeof(digits), "%lld",
                static_cast<long long>(value < 0 ? -value : value));
  std::string body(digits);
  std::string out;
  if (value < 0) out += '-';
  size_t lead = body.size() % 3;
  if (lead == 0) lead = 3;
  out += body.substr(0, lead);
  for (size_t i = lead; i < body.size(); i += 3) {
    out += ',';
    out += body.substr(i, 3);
  }
  return out;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string StringPrintf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    // vsnprintf writes the NUL one past `needed`; std::string guarantees
    // data()[size()] is writable as '\0' since C++11.
    std::vsnprintf(out.data(), static_cast<size_t>(needed) + 1, format,
                   args_copy);
  }
  va_end(args_copy);
  return out;
}

bool IsValidUtf8(std::string_view s) {
  size_t i = 0;
  while (i < s.size()) {
    const unsigned char b0 = static_cast<unsigned char>(s[i]);
    size_t len;
    uint32_t cp;
    if (b0 < 0x80) {
      ++i;
      continue;
    } else if ((b0 & 0xE0) == 0xC0) {
      len = 2;
      cp = b0 & 0x1F;
    } else if ((b0 & 0xF0) == 0xE0) {
      len = 3;
      cp = b0 & 0x0F;
    } else if ((b0 & 0xF8) == 0xF0) {
      len = 4;
      cp = b0 & 0x07;
    } else {
      return false;  // Continuation byte or 0xFE/0xFF lead.
    }
    if (i + len > s.size()) return false;
    for (size_t k = 1; k < len; ++k) {
      const unsigned char b = static_cast<unsigned char>(s[i + k]);
      if ((b & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (b & 0x3F);
    }
    // Overlong encodings, UTF-16 surrogates, and out-of-range points.
    if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
        (len == 4 && cp < 0x10000) || (cp >= 0xD800 && cp <= 0xDFFF) ||
        cp > 0x10FFFF) {
      return false;
    }
    i += len;
  }
  return true;
}

}  // namespace tpiin
