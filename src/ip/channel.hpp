// The EXPRESS channel identifier (S, E).
//
// A channel is a datagram delivery service identified by the pair of the
// sender's source address S and a single-source class D destination E
// (paper §2). Two channels (S, E) and (S', E) are unrelated despite the
// shared destination — the pair, not the address, is the routing key.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "ip/address.hpp"

namespace express::ip {

struct ChannelId {
  Address source;  ///< S — the only host allowed to send.
  Address dest;    ///< E — destination in the single-source 232/8 block.

  /// A channel is well-formed when S is unicast and E is in the
  /// single-source range.
  [[nodiscard]] constexpr bool valid() const {
    return source.is_unicast() && dest.is_single_source();
  }

  [[nodiscard]] std::string to_string() const {
    // append, not `"(" + std::string`: GCC 12 -O3 misreports that as
    // -Wrestrict wherever this is inlined.
    return std::string("(")
        .append(source.to_string())
        .append(", ")
        .append(dest.to_string())
        .append(")");
  }

  /// Bijective 64-bit packing | source 32b | dest 32b | — the FIB probe
  /// key, also used as a trace-record operand to identify the channel.
  [[nodiscard]] constexpr std::uint64_t packed() const {
    return (std::uint64_t{source.value()} << 32) | std::uint64_t{dest.value()};
  }

  friend constexpr auto operator<=>(const ChannelId&, const ChannelId&) = default;
};

/// Channel authentication key K(S,E) (paper §2.1 / §3.5). The paper
/// treats keys as opaque tokens distributed out of band; we model them
/// as 64-bit values compared exactly. Zero means "no key".
using ChannelKey = std::uint64_t;
inline constexpr ChannelKey kNoKey = 0;

}  // namespace express::ip

template <>
struct std::hash<express::ip::ChannelId> {
  std::size_t operator()(const express::ip::ChannelId& c) const noexcept {
    // Mix the 64-bit (S,E) pair; this is the hashed channel lookup the
    // paper's event-cost measurements include (§5.3).
    std::uint64_t x = (static_cast<std::uint64_t>(c.source.value()) << 32) |
                      c.dest.value();
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};
