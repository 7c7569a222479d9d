#pragma once
/// \file measure.hpp
/// Process-level measurement helpers shared by the workloads and the layer
/// replays: process CPU time and peak memory from getrusage, thread CPU
/// time, an FNV-1a digest, seed derivation, and a minimal JSON object
/// writer for the record run.py parses.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// User + system CPU seconds consumed by this process so far (all threads).
double cpu_seconds();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// CPU seconds consumed by the calling thread so far.
double thread_cpu_seconds();

/// SplitMix64 of (seed, stream, index): independent, reproducible sub-seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word);
  void add_double(double value);  ///< by bit pattern
  std::uint64_t value() const { return hash_; }
  std::string hex() const;

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Flat JSON object builder. Doubles are written with 17 significant
/// digits, so measured values keep all their digits.
class Json {
 public:
  Json& set(const std::string& key, double value);
  Json& set(const std::string& key, std::uint64_t value);
  Json& set(const std::string& key, int value);
  Json& set(const std::string& key, bool value);
  Json& set(const std::string& key, const std::string& value);
  Json& set(const std::string& key, const char* value);
  Json& set(const std::string& key, const Json& object);
  Json& set(const std::string& key, const std::vector<double>& values);
  std::string str() const;

 private:
  Json& raw(const std::string& key, const std::string& text);
  std::string body_;
};

}  // namespace perfbench
