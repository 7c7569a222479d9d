#pragma once
/// \file frame_io.hpp
/// Socket I/O shared by the daemon and the client: a blocking send of a
/// whole buffer, and a receive buffer that decodes frames in place at a
/// cursor. The cursor design keeps the per-frame cost at one try_decode:
/// no frame is copied out and the consumed prefix is dropped once per
/// receive, not once per frame.

#include <cstddef>
#include <vector>

#include <sys/types.h>

#include "eval/wire.hpp"

namespace adse::serve {

/// Sends all of `data`, tolerating short writes and EINTR. MSG_NOSIGNAL: a
/// peer that vanished turns into a false return, not a process-wide SIGPIPE.
bool send_all(int fd, const char* data, std::size_t size);

class FrameReader {
 public:
  /// Decodes the frame at the cursor and, on kOk, moves the cursor past it.
  /// The frame's payload views this reader's buffer and stays valid until
  /// the next receive() or clear(). kNeedMore leaves the cursor in place;
  /// any other status means the stream cannot be resynchronized.
  eval::wire::DecodeStatus next(eval::wire::Frame& frame);

  /// Drops the decoded prefix, then reads once from `fd` into the free tail
  /// (at least 64 KiB of room). Returns recv(2)'s result.
  ssize_t receive(int fd);

  /// Forgets every buffered byte (a new connection).
  void clear() { begin_ = end_ = 0; }

 private:
  std::vector<char> data_;
  std::size_t begin_ = 0;  ///< first byte of the first undecoded frame
  std::size_t end_ = 0;    ///< one past the last received byte
};

}  // namespace adse::serve
