#pragma once
/// \file format.hpp
/// "XBF" — the synthetic bitstream encoding used by this library.
///
/// Real Xilinx bitstreams are opaque command streams; what matters to the
/// paper is their *size* (configuration time = size / port throughput) and
/// their structure (full streams write every frame sequentially; partial
/// streams carry per-frame addresses). XBF mirrors exactly that:
///
///   full:    [header: fullOverhead-4 bytes][frame payloads][crc32]
///   partial: [header: partialOverhead-4 bytes][{addr,payload}...][crc32]
///
/// Header fields live at the front of the header block; the remainder is
/// zero padding standing in for the command preamble of a real stream.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fabric/geometry.hpp"
#include "util/units.hpp"

namespace prtr::fabric {
class Device;
}  // namespace prtr::fabric

namespace prtr::bitstream {

/// Stream type discriminator.
enum class StreamType : std::uint8_t { kFull = 1, kPartial = 2 };

[[nodiscard]] const char* toString(StreamType type) noexcept;

/// Decoded header fields (see format description above).
struct Header {
  static constexpr std::uint32_t kMagic = 0x58424631;  // "XBF1"

  StreamType type = StreamType::kFull;
  std::uint32_t deviceTag = 0;    ///< CRC-32 of the device name
  std::uint32_t firstFrame = 0;   ///< first frame index (partial only)
  std::uint32_t frameCount = 0;   ///< frames carried
  std::uint32_t frameBytes = 0;   ///< payload bytes per frame
  std::uint64_t moduleId = 0;     ///< identity of the configured design
};

/// A decoded frame write.
struct FrameWrite {
  std::uint32_t frame = 0;
  std::span<const std::uint8_t> payload;
};

/// Parsed view over a validated stream. Non-owning: the underlying byte
/// buffer must outlive the view.
struct ParsedStream {
  Header header;
  std::vector<FrameWrite> writes;
};

/// An encoded bitstream plus its decoded identity.
///
/// The bytes are immutable, and a stream's validity depends only on them and
/// the target device, so each Bitstream memoizes its validated parse per
/// device identity (see parsedFor). Copies start with an empty memo, since
/// the memoized spans point into the original's bytes; a move carries the
/// memo along with the byte buffer it points into.
class Bitstream {
 public:
  Bitstream(Header header, std::vector<std::uint8_t> bytes)
      : header_(header), bytes_(std::move(bytes)) {}

  Bitstream(const Bitstream& other)
      : header_(other.header_), bytes_(other.bytes_) {}
  Bitstream(Bitstream&& other) noexcept;
  Bitstream& operator=(const Bitstream& other);
  Bitstream& operator=(Bitstream&& other) noexcept;

  [[nodiscard]] const Header& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] util::Bytes size() const noexcept {
    return util::Bytes{bytes_.size()};
  }
  [[nodiscard]] bool isPartial() const noexcept {
    return header_.type == StreamType::kPartial;
  }

  /// Validated parse of this stream against `device` (parser.hpp): the
  /// BS001-BS010 checks and the CRC walk run once per device identity, and
  /// every later call, from any thread or simulated node, returns the same
  /// object. The reference stays valid while this Bitstream lives. Throws
  /// BitstreamError on an invalid stream, memoizing nothing, so every call
  /// re-validates and throws again. Defined in parser.cpp.
  [[nodiscard]] const ParsedStream& parsedFor(const fabric::Device& device) const;

  /// MFW wire size of this partial stream on `device` (compress.hpp),
  /// computed once and kept in the same memo entry as the parse. Defined in
  /// compress.cpp.
  [[nodiscard]] util::Bytes mfwWireBytes(const fabric::Device& device) const;

 private:
  /// One validated (stream, device) pair. The device is identified by its
  /// name and the geometry fields scanStream reads; the fingerprint is
  /// compared first as a cheap reject.
  struct MemoEntry {
    std::uint32_t fingerprint = 0;
    std::string deviceName;
    std::uint32_t totalFrames = 0;
    fabric::DeviceGeometry::Encoding encoding{};
    ParsedStream parsed;
    std::optional<util::Bytes> mfwWireBytes;
  };

  /// The entry for `device`, parsing under memoMutex_ on first use.
  [[nodiscard]] MemoEntry& memoEntry(const fabric::Device& device) const;

  Header header_;
  std::vector<std::uint8_t> bytes_;
  mutable std::mutex memoMutex_;
  /// Entries live as long as the bytes they view; unique_ptr keeps the
  /// returned references stable as the vector grows.
  mutable std::vector<std::unique_ptr<MemoEntry>> memo_;
};

/// CRC-32 tag for a device name, stored in headers for compatibility checks.
[[nodiscard]] std::uint32_t deviceTag(const std::string& deviceName) noexcept;

}  // namespace prtr::bitstream
