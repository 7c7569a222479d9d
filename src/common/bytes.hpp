#pragma once
/// \file bytes.hpp
/// Cursors for the repository's binary formats (the result store's records
/// and the wire codec's frames and payloads): fixed-width fields in host
/// byte order, strings as a u32 length then the bytes. A writer sizes its
/// output once and then copies each field into place, so a frame or a
/// record costs one resize and no intermediate string.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/require.hpp"

namespace adse::bytes {

/// Encoded size of Writer::str(s).
inline std::size_t string_bytes(std::string_view s) { return 4 + s.size(); }

/// Writes fields at a cursor into `n` bytes appended to `out` in one resize.
/// `out` must not be resized while the writer is in use. Writing past the
/// `n` bytes throws InvariantError (a size computed apart from its writer
/// is a bug, never bad input); `full()` says whether exactly `n` were
/// written.
class Writer {
 public:
  Writer(std::string& out, std::size_t n) {
    const std::size_t start = out.size();
    out.resize(start + n);
    pos_ = out.data() + start;
    end_ = pos_ + n;
  }

  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void raw(const void* data, std::size_t n) {
    ADSE_REQUIRE_MSG(n <= static_cast<std::size_t>(end_ - pos_),
                     "write past the sized end");
    if (n > 0) std::memcpy(pos_, data, n);
    pos_ += n;
  }

  bool full() const { return pos_ == end_; }

 private:
  char* pos_;
  char* end_;
};

/// Reads fixed-width fields at a cursor from bytes whose length the caller
/// has already checked.
class Cursor {
 public:
  explicit Cursor(const void* data)
      : pos_(static_cast<const unsigned char*>(data)) {}

  std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }
  double f64() {
    double v;
    std::memcpy(&v, pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }

 private:
  const unsigned char* pos_;
};

}  // namespace adse::bytes
