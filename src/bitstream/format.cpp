#include "bitstream/format.hpp"

#include <span>

#include "util/crc32.hpp"

namespace prtr::bitstream {

const char* toString(StreamType type) noexcept {
  switch (type) {
    case StreamType::kFull: return "full";
    case StreamType::kPartial: return "partial";
  }
  return "?";
}

Bitstream::Bitstream(Bitstream&& other) noexcept
    : header_(other.header_),
      bytes_(std::move(other.bytes_)),
      memo_(std::move(other.memo_)) {}

Bitstream& Bitstream::operator=(const Bitstream& other) {
  if (this != &other) {
    header_ = other.header_;
    bytes_ = other.bytes_;
    memo_.clear();
  }
  return *this;
}

Bitstream& Bitstream::operator=(Bitstream&& other) noexcept {
  if (this != &other) {
    header_ = other.header_;
    bytes_ = std::move(other.bytes_);
    memo_ = std::move(other.memo_);
    other.bytes_.clear();
    other.memo_.clear();
  }
  return *this;
}

std::uint32_t deviceTag(const std::string& deviceName) noexcept {
  return util::Crc32::of(std::span{
      reinterpret_cast<const std::uint8_t*>(deviceName.data()), deviceName.size()});
}

}  // namespace prtr::bitstream
