#include "bitstream/parser.hpp"

#include "analyze/checks_bitstream.hpp"
#include "util/error.hpp"

namespace prtr::bitstream {

// Both entry points delegate to the analyze scanners so the parser and
// prtr-lint can never disagree about what makes a stream malformed; the
// first error-severity diagnostic becomes the thrown BitstreamError.

Header peekHeader(std::span<const std::uint8_t> bytes) {
  analyze::DiagnosticSink sink;
  const auto header = analyze::scanHeader(bytes, sink);
  if (!header) throw util::BitstreamError{"XBF: " + sink.firstError().format()};
  return *header;
}

ParsedStream parse(std::span<const std::uint8_t> bytes,
                   const fabric::Device& device) {
  analyze::DiagnosticSink sink;
  analyze::StreamScan scan = analyze::scanStream(bytes, device, sink);
  if (sink.hasErrors()) {
    throw util::BitstreamError{"XBF: " + sink.firstError().format()};
  }
  ParsedStream out;
  out.header = scan.header;
  out.writes = std::move(scan.writes);
  return out;
}

Bitstream::MemoEntry& Bitstream::memoEntry(const fabric::Device& device) const {
  const fabric::DeviceGeometry& geometry = device.geometry();
  const std::lock_guard<std::mutex> lock{memoMutex_};
  for (const std::unique_ptr<MemoEntry>& entry : memo_) {
    if (entry->fingerprint == geometry.fingerprint() &&
        entry->totalFrames == geometry.totalFrames() &&
        entry->encoding == geometry.encoding() &&
        entry->deviceName == device.name()) {
      return *entry;
    }
  }
  // Parse while holding the lock: concurrent first users wait for the one
  // parse instead of repeating it. A throw leaves the memo unchanged.
  memo_.push_back(std::make_unique<MemoEntry>(MemoEntry{
      geometry.fingerprint(), device.name(), geometry.totalFrames(),
      geometry.encoding(), parse(*this, device), std::nullopt}));
  return *memo_.back();
}

const ParsedStream& Bitstream::parsedFor(const fabric::Device& device) const {
  return memoEntry(device).parsed;
}

}  // namespace prtr::bitstream
