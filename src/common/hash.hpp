#pragma once
/// \file hash.hpp
/// The repository's one FNV-1a implementation, in two widths:
///
///   * byte-wise FNV-1a — the classic 64-bit hash, one xor-multiply per
///     byte. Frozen wherever the value is persisted: the result store's
///     record checksum and `ResultStore::tag` must stay byte-wise so every
///     existing store still loads.
///   * word-wise — the same xor-multiply on whole 8-byte words, each step
///     followed by `h ^= h >> 32` so the high bits of a word reach the low
///     bits of the state (a bare multiply only carries bits upward). The
///     tail shorter than a word is hashed byte-wise. Every step (xor, odd
///     multiply, xorshift) is a bijection of the running state, so changing
///     any one word always changes the result. Used where only this process
///     or this wire version reads the value: the wire frame checksum, the
///     daemon's shard hash, the memo key hash and the fused model's
///     observation set.

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace adse::hash {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Byte-wise FNV-1a of `n` bytes, continuing from `hash`.
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t n,
                                 std::uint64_t hash = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

/// One word step of the word-wise hash.
inline std::uint64_t mix_word(std::uint64_t hash, std::uint64_t word) {
  hash ^= word;
  hash *= kFnvPrime;
  return hash ^ (hash >> 32);
}

/// Word-wise hash of `n` bytes (8-byte words in host byte order, then the
/// tail byte-wise), continuing from `hash`.
inline std::uint64_t fnv1a_words(const void* data, std::size_t n,
                                 std::uint64_t hash = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    hash = mix_word(hash, word);
  }
  return fnv1a_bytes(p + i, n - i, hash);
}

/// Word-wise hash of a double's bit pattern (feature vectors are hashed by
/// exact bits; every one comes out of the same discrete generation path).
inline std::uint64_t mix_double(std::uint64_t hash, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return mix_word(hash, bits);
}

}  // namespace adse::hash
