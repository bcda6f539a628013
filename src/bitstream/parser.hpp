#pragma once
/// \file parser.hpp
/// Structural validation and decoding of XBF streams. The configuration
/// engine validates every stream before applying it, mirroring the checks a
/// real configuration controller performs (and the ones the Cray API layers
/// on top — see config/vendor_api.hpp).
///
/// Two entry points share one rule set (analyze::scanStream):
///  * parse() validates from scratch on every call and returns a new
///    ParsedStream. Use it for bytes that are not a Bitstream, or to time
///    the parse itself.
///  * Bitstream::parsedFor(device) is the memoized path the configuration
///    engine uses: the first call per (stream, device identity) runs parse()
///    under the stream's lock, later calls from any node or thread return the
///    same ParsedStream. A failed parse is never memoized.

#include <cstdint>
#include <span>

#include "bitstream/format.hpp"
#include "fabric/device.hpp"

namespace prtr::bitstream {

/// Parses and validates `bytes` against `device`'s geometry.
/// Throws BitstreamError on: bad magic, unknown type, device mismatch,
/// truncated data, out-of-range frame addresses, or CRC failure.
[[nodiscard]] ParsedStream parse(std::span<const std::uint8_t> bytes,
                                 const fabric::Device& device);

/// Convenience overload.
[[nodiscard]] inline ParsedStream parse(const Bitstream& stream,
                                        const fabric::Device& device) {
  return parse(std::span{stream.bytes()}, device);
}

/// Cheap header-only peek (no CRC walk); used by size/type checks.
[[nodiscard]] Header peekHeader(std::span<const std::uint8_t> bytes);

}  // namespace prtr::bitstream
