#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "common/require.hpp"

namespace adse {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

double parse_double(std::string_view s) {
  s = trim(s);
  double v = 0.0;
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  ADSE_REQUIRE_MSG(ec == std::errc() && ptr == end,
                   "cannot parse '" << std::string(s) << "' as double");
  return v;
}

long long parse_int(std::string_view s) {
  s = trim(s);
  long long v = 0;
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  ADSE_REQUIRE_MSG(ec == std::errc() && ptr == end,
                   "cannot parse '" << std::string(s) << "' as integer");
  return v;
}

std::uint64_t parse_u64(std::string_view s) {
  s = trim(s);
  std::uint64_t v = 0;
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  ADSE_REQUIRE_MSG(ec == std::errc() && ptr == end,
                   "cannot parse '" << std::string(s) << "' as u64");
  return v;
}

std::string format_fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string format_grouped(long long v) {
  const bool neg = v < 0;
  std::string digits = std::to_string(neg ? -v : v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int since = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (since == 3) {
      out.push_back(',');
      since = 0;
    }
    out.push_back(*it);
    ++since;
  }
  if (neg) out.push_back('-');
  return {out.rbegin(), out.rend()};
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace adse
