#pragma once
/// \file crc32.hpp
/// CRC-32 (IEEE 802.3 polynomial) used to protect synthetic bitstreams,
/// mirroring the CRC words embedded in real Xilinx configuration streams.

#include <cstddef>
#include <cstdint>
#include <span>

namespace prtr::util {

/// Incremental CRC-32 computation.
class Crc32 {
 public:
  /// Feeds `data` into the running checksum.
  void update(std::span<const std::uint8_t> data) noexcept;

  /// Feeds the 8 little-endian bytes of `value` (for hashing key fields).
  void updateU64(std::uint64_t value) noexcept;

  /// Final checksum value for everything fed so far.
  [[nodiscard]] std::uint32_t value() const noexcept { return ~crc_; }

  /// One-shot convenience.
  [[nodiscard]] static std::uint32_t of(std::span<const std::uint8_t> data) noexcept {
    Crc32 c;
    c.update(data);
    return c.value();
  }

 private:
  std::uint32_t crc_ = 0xFFFFFFFFu;
};

}  // namespace prtr::util
