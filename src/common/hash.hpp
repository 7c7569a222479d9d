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
///     bits of the state (a bare multiply only carries bits upward). Every
///     step (xor, odd multiply, xorshift) is a bijection of the running
///     state. `fnv1a_words` runs four such chains side by side — word i
///     goes to lane i % 4 — and folds the lanes in lane order into one
///     state, then hashes the tail shorter than a word byte-wise. The
///     fold is a bijection of each lane too, so changing any one word
///     still changes the result, but the four multiply chains overlap in
///     the pipeline instead of waiting on each other (860 bytes: 87–94 ns
///     against 276–285 ns for one chain, Release, DESIGN.md §15). Used where
///     only this process or this wire version reads the value: the wire
///     frame checksum (wire version 3; version 2 was one chain), the
///     daemon's shard hash and the memo key hash. `mix_word` chains are
///     the fused model's observation-set hash.

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

/// Word-wise hash of `n` bytes (8-byte words in host byte order, four
/// lanes folded in lane order, then the tail byte-wise), continuing from
/// `hash`.
inline std::uint64_t fnv1a_words(const void* data, std::size_t n,
                                 std::uint64_t hash = kFnvOffset) {
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  const auto* p = static_cast<const unsigned char*>(data);
  const auto load = [p](std::size_t at) {
    std::uint64_t word;
    std::memcpy(&word, p + at, kWord);
    return word;
  };
  // Four named lanes, not an array: the compiler keeps them in registers
  // and interleaves their multiplies.
  std::uint64_t lane0 = hash, lane1 = hash, lane2 = hash, lane3 = hash;
  std::size_t i = 0;
  for (; i + 4 * kWord <= n; i += 4 * kWord) {
    lane0 = mix_word(lane0, load(i));
    lane1 = mix_word(lane1, load(i + kWord));
    lane2 = mix_word(lane2, load(i + 2 * kWord));
    lane3 = mix_word(lane3, load(i + 3 * kWord));
  }
  // At most three whole words remain; they continue lanes 0, 1 and 2.
  if (i + kWord <= n) {
    lane0 = mix_word(lane0, load(i));
    i += kWord;
  }
  if (i + kWord <= n) {
    lane1 = mix_word(lane1, load(i));
    i += kWord;
  }
  if (i + kWord <= n) {
    lane2 = mix_word(lane2, load(i));
    i += kWord;
  }
  hash = mix_word(mix_word(mix_word(lane0, lane1), lane2), lane3);
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
