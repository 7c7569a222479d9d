#include "serve/frame_io.hpp"

#include <cerrno>
#include <cstring>
#include <string_view>

#include <sys/socket.h>

namespace adse::serve {

namespace {

/// Free room guaranteed before each receive: a full socket buffer's worth,
/// so a pipelined batch arrives in few recv calls.
constexpr std::size_t kReceiveBytes = 1 << 16;

}  // namespace

bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

eval::wire::DecodeStatus FrameReader::next(eval::wire::Frame& frame) {
  std::size_t consumed = 0;
  const eval::wire::DecodeStatus status = eval::wire::try_decode(
      std::string_view(data_.data() + begin_, end_ - begin_), frame, consumed);
  begin_ += consumed;
  return status;
}

ssize_t FrameReader::receive(int fd) {
  if (begin_ > 0) {
    std::memmove(data_.data(), data_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (data_.size() - end_ < kReceiveBytes) data_.resize(end_ + kReceiveBytes);
  const ssize_t n = ::recv(fd, data_.data() + end_, data_.size() - end_, 0);
  if (n > 0) end_ += static_cast<std::size_t>(n);
  return n;
}

}  // namespace adse::serve
