#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace prtr::util {
namespace {

/// Slicing-by-8 tables: table[0] is the classic byte table; table[k] maps a
/// byte processed k positions earlier in an 8-byte block. Values are
/// identical to the byte-at-a-time loop for every input.
constexpr std::array<std::array<std::uint32_t, 256>, 8> makeTables() noexcept {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t t = 1; t < 8; ++t) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

constexpr auto kTables = makeTables();

}  // namespace

void Crc32::update(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t crc = crc_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint64_t block;
      std::memcpy(&block, p, 8);
      block ^= crc;
      crc = kTables[7][block & 0xFFu] ^ kTables[6][(block >> 8) & 0xFFu] ^
            kTables[5][(block >> 16) & 0xFFu] ^
            kTables[4][(block >> 24) & 0xFFu] ^
            kTables[3][(block >> 32) & 0xFFu] ^
            kTables[2][(block >> 40) & 0xFFu] ^
            kTables[1][(block >> 48) & 0xFFu] ^ kTables[0][block >> 56];
      p += 8;
      n -= 8;
    }
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  crc_ = crc;
}

void Crc32::updateU64(std::uint64_t value) noexcept {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  update(bytes);
}

}  // namespace prtr::util
