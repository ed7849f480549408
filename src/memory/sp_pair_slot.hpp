#pragma once
// Internal to the TTSP reduction (sp_tree.cpp): the key and the home slot of
// a vertex pair in its open-addressing pair index. A header of its own so the
// tests can check the slot spread on the key sets the reduction produces.

#include <cstdint>

namespace dagpm::memory::detail {

/// The key of the ordered vertex pair (u, v).
constexpr std::uint64_t pairKey(std::uint32_t u, std::uint32_t v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Home slot of `key` in a table of 2^bits slots (1 <= bits <= 32):
/// Fibonacci hashing, the top `bits` bits of key * 2^64/phi. The top bits
/// mix both halves of the key; low or middle bits would not, and the keys
/// (v, sink) or (source, v) of a wide fan would share a handful of slots.
constexpr std::uint32_t pairSlot(std::uint64_t key, unsigned bits) {
  return static_cast<std::uint32_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                    (64 - bits));
}

}  // namespace dagpm::memory::detail
