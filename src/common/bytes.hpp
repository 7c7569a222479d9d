#pragma once
/// \file bytes.hpp
/// Append encoders for the repository's binary formats (the result store's
/// records and the wire codec's frames and payloads): fixed-width fields in
/// host byte order, strings as a u32 length then the bytes. Callers reserve
/// their output first, so each field is one append.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace adse::bytes {

inline void put_u32(std::string& out, std::uint32_t v) {
  char raw[sizeof(v)];
  std::memcpy(raw, &v, sizeof(v));
  out.append(raw, sizeof(v));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char raw[sizeof(v)];
  std::memcpy(raw, &v, sizeof(v));
  out.append(raw, sizeof(v));
}

inline void put_double(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

inline void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Encoded size of put_string(s).
inline std::size_t string_bytes(std::string_view s) { return 4 + s.size(); }

}  // namespace adse::bytes
