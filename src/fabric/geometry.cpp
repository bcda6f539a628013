#include "fabric/geometry.hpp"

#include "util/crc32.hpp"
#include "util/error.hpp"

namespace prtr::fabric {

const char* toString(ColumnKind kind) noexcept {
  switch (kind) {
    case ColumnKind::kClb: return "CLB";
    case ColumnKind::kBramPair: return "BRAM";
    case ColumnKind::kIob: return "IOB";
    case ColumnKind::kGclk: return "GCLK";
    case ColumnKind::kPpc: return "PPC";
  }
  return "?";
}

DeviceGeometry::DeviceGeometry(std::string name, std::uint32_t rows,
                               std::vector<ColumnSpec> columns, Encoding encoding)
    : name_(std::move(name)),
      rows_(rows),
      columns_(std::move(columns)),
      encoding_(encoding) {
  util::require(rows_ > 0, "DeviceGeometry: rows must be positive");
  util::require(!columns_.empty(), "DeviceGeometry: no columns");
  util::require(encoding_.frameBytes > 0, "DeviceGeometry: zero frame size");
  frameStart_.reserve(columns_.size() + 1);
  std::uint32_t acc = 0;
  for (const ColumnSpec& col : columns_) {
    util::require(col.frames > 0, "DeviceGeometry: column with zero frames");
    frameStart_.push_back(acc);
    acc += col.frames;
  }
  frameStart_.push_back(acc);
  totalFrames_ = acc;

  util::Crc32 crc;
  crc.updateU64(rows_);
  for (const ColumnSpec& column : columns_) {
    crc.updateU64(static_cast<std::uint64_t>(column.kind));
    crc.updateU64(column.frames);
  }
  crc.updateU64(encoding_.frameBytes);
  crc.updateU64(encoding_.fullOverheadBytes);
  crc.updateU64(encoding_.partialOverheadBytes);
  crc.updateU64(encoding_.frameAddressBytes);
  fingerprint_ = crc.value();
}

FrameRange DeviceGeometry::columnFrames(std::size_t index) const {
  util::require(index < columns_.size(), "DeviceGeometry: column out of range");
  return FrameRange{frameStart_[index], columns_[index].frames};
}

FrameRange DeviceGeometry::columnRangeFrames(std::size_t firstColumn,
                                             std::size_t columnCount) const {
  util::require(firstColumn + columnCount <= columns_.size(),
                "DeviceGeometry: column range out of bounds");
  util::require(columnCount > 0, "DeviceGeometry: empty column range");
  return FrameRange{frameStart_[firstColumn],
                    frameStart_[firstColumn + columnCount] - frameStart_[firstColumn]};
}

ResourceVec DeviceGeometry::columnRangeResources(std::size_t firstColumn,
                                                 std::size_t columnCount) const {
  util::require(firstColumn + columnCount <= columns_.size(),
                "DeviceGeometry: column range out of bounds");
  ResourceVec total{};
  for (std::size_t c = firstColumn; c < firstColumn + columnCount; ++c) {
    total += columns_[c].resources;
  }
  return total;
}

std::uint32_t DeviceGeometry::countKind(std::size_t firstColumn,
                                        std::size_t columnCount,
                                        ColumnKind kind) const {
  util::require(firstColumn + columnCount <= columns_.size(),
                "DeviceGeometry: column range out of bounds");
  std::uint32_t n = 0;
  for (std::size_t c = firstColumn; c < firstColumn + columnCount; ++c) {
    if (columns_[c].kind == kind) ++n;
  }
  return n;
}

util::Bytes DeviceGeometry::fullBitstreamBytes() const noexcept {
  return util::Bytes{static_cast<std::uint64_t>(encoding_.fullOverheadBytes) +
                     static_cast<std::uint64_t>(totalFrames_) * encoding_.frameBytes};
}

util::Bytes DeviceGeometry::partialBitstreamBytes(std::uint32_t frames) const noexcept {
  return util::Bytes{
      static_cast<std::uint64_t>(encoding_.partialOverheadBytes) +
      static_cast<std::uint64_t>(frames) *
          (encoding_.frameBytes + encoding_.frameAddressBytes)};
}

}  // namespace prtr::fabric
