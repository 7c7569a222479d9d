#include "measure.hpp"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = seed ^ (stream * 0xd1b54a32d192ed03ULL) ^
                    (index * 0x9e3779b97f4a7c15ULL);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::add(std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    hash_ ^= (word >> (8 * b)) & 0xffu;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::add_double(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add(bits);
}

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash_));
  return text;
}

namespace {

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

}  // namespace

Json& Json::raw(const std::string& key, const std::string& text) {
  if (!body_.empty()) body_ += ", ";
  body_ += quote(key) + ": " + text;
  return *this;
}

Json& Json::set(const std::string& key, double value) {
  return raw(key, number(value));
}
Json& Json::set(const std::string& key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}
Json& Json::set(const std::string& key, int value) {
  return raw(key, std::to_string(value));
}
Json& Json::set(const std::string& key, bool value) {
  return raw(key, value ? "true" : "false");
}
Json& Json::set(const std::string& key, const std::string& value) {
  return raw(key, quote(value));
}
Json& Json::set(const std::string& key, const char* value) {
  return raw(key, quote(value));
}
Json& Json::set(const std::string& key, const Json& object) {
  return raw(key, object.str());
}
Json& Json::set(const std::string& key, const std::vector<double>& values) {
  std::string text = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    text += (i == 0 ? "" : ", ") + number(values[i]);
  }
  return raw(key, text + "]");
}

std::string Json::str() const { return "{" + body_ + "}"; }

}  // namespace perfbench
