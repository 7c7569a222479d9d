#pragma once
/// \file strings.hpp
/// Small string utilities shared by the CSV reader, config serialisation and
/// report rendering. Kept dependency-free.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace adse {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Parses a double; throws InvariantError with context on failure.
double parse_double(std::string_view s);

/// Parses a signed integer; throws InvariantError with context.
long long parse_int(std::string_view s);

/// Parses an unsigned 64-bit integer over its full range (seeds); throws
/// InvariantError with context, including on a sign.
std::uint64_t parse_u64(std::string_view s);

/// printf-style double formatting with fixed decimals.
std::string format_fixed(double v, int decimals);

/// Formats with thousands separators, e.g. 25078088 -> "25,078,088".
std::string format_grouped(long long v);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Lower-cases ASCII.
std::string to_lower(std::string_view s);

}  // namespace adse
