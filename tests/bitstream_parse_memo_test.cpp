// Tests for the per-stream parse memo (bitstream::Bitstream::parsedFor):
// one validated parse per (stream, device identity), shared by every node
// and thread, never memoizing a failure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bitstream/builder.hpp"
#include "bitstream/compress.hpp"
#include "bitstream/parser.hpp"
#include "config/memory.hpp"
#include "exec/pool.hpp"
#include "fabric/floorplan.hpp"
#include "util/error.hpp"

namespace prtr::bitstream {
namespace {

class ParseMemoTest : public ::testing::Test {
 protected:
  fabric::Floorplan plan_ = fabric::makeDualPrrLayout();
  Builder builder_{plan_.device()};
};

/// Runs `call` and returns the BitstreamError message it throws ("" if none).
template <typename Fn>
std::string bitstreamErrorOf(Fn&& call) {
  try {
    call();
  } catch (const util::BitstreamError& error) {
    return error.what();
  }
  return "";
}

bool within(std::span<const std::uint8_t> span,
            const std::vector<std::uint8_t>& bytes) {
  return span.data() >= bytes.data() &&
         span.data() + span.size() <= bytes.data() + bytes.size();
}

TEST_F(ParseMemoTest, ConfigMemoriesOnSeparateNodesShareOneParse) {
  // Each simulated node owns its own Device and ConfigMemory.
  const fabric::Floorplan nodeA = fabric::makeDualPrrLayout();
  const fabric::Floorplan nodeB = fabric::makeDualPrrLayout();
  const config::ConfigMemory memoryA{nodeA.device()};
  const config::ConfigMemory memoryB{nodeB.device()};
  const Bitstream stream = builder_.buildModulePartial(plan_.prr(0), 7);

  const ParsedStream& a = memoryA.parsedFor(stream);
  const ParsedStream& b = memoryB.parsedFor(stream);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&a, &stream.parsedFor(plan_.device()));
  EXPECT_EQ(a.writes.size(), stream.header().frameCount);
}

TEST_F(ParseMemoTest, CorruptCrcThrowsOnEveryCall) {
  const Bitstream good = builder_.buildModulePartial(plan_.prr(0), 7);
  std::vector<std::uint8_t> bytes = good.bytes();
  bytes[bytes.size() - 1] ^= 0x01;  // one byte of the stored CRC
  const Bitstream bad{good.header(), std::move(bytes)};
  const config::ConfigMemory memory{plan_.device()};

  for (int call = 0; call < 3; ++call) {
    const std::string message =
        bitstreamErrorOf([&] { (void)memory.parsedFor(bad); });
    EXPECT_NE(message.find("BS006"), std::string::npos)
        << "call " << call << ": " << message;
  }
}

TEST_F(ParseMemoTest, ParseOnOneDeviceDoesNotValidateAnother) {
  const Bitstream stream = builder_.buildModulePartial(plan_.prr(0), 7);
  const fabric::Device xc2vp30 = fabric::makeXc2vp30();
  (void)stream.parsedFor(plan_.device());

  for (int call = 0; call < 2; ++call) {
    const std::string message =
        bitstreamErrorOf([&] { (void)stream.parsedFor(xc2vp30); });
    EXPECT_NE(message.find("BS004"), std::string::npos) << message;
  }
  EXPECT_NO_THROW((void)stream.parsedFor(plan_.device()));
}

TEST_F(ParseMemoTest, SameNameDifferentGeometryIsADifferentDevice) {
  const fabric::DeviceGeometry& real = plan_.device().geometry();
  fabric::DeviceGeometry::Encoding encoding = real.encoding();
  encoding.frameBytes += 4;
  const fabric::Device impostor{
      fabric::DeviceGeometry{
          real.name(), real.rows(),
          std::vector<fabric::ColumnSpec>(real.columns().begin(),
                                          real.columns().end()),
          encoding},
      plan_.device().usableResources(), "same name, wider frames"};
  const Bitstream stream = builder_.buildModulePartial(plan_.prr(0), 7);
  (void)stream.parsedFor(plan_.device());

  const std::string message =
      bitstreamErrorOf([&] { (void)stream.parsedFor(impostor); });
  EXPECT_NE(message.find("BS005"), std::string::npos) << message;
}

TEST_F(ParseMemoTest, CopyParsesIntoItsOwnBytes) {
  const Bitstream original = builder_.buildModulePartial(plan_.prr(0), 7, 0.5);
  const ParsedStream& parsedOriginal = original.parsedFor(plan_.device());
  const Bitstream copy = original;

  const ParsedStream& parsedCopy = copy.parsedFor(plan_.device());
  EXPECT_NE(&parsedCopy, &parsedOriginal);
  ASSERT_EQ(parsedCopy.writes.size(), parsedOriginal.writes.size());
  for (const FrameWrite& write : parsedCopy.writes) {
    EXPECT_TRUE(within(write.payload, copy.bytes())) << "frame " << write.frame;
  }
}

TEST_F(ParseMemoTest, MoveKeepsTheParseAndLeavesASafeSource) {
  Bitstream source = builder_.buildModulePartial(plan_.prr(0), 7);
  const ParsedStream* parsed = &source.parsedFor(plan_.device());

  Bitstream moved = std::move(source);
  EXPECT_EQ(&moved.parsedFor(plan_.device()), parsed);
  for (const FrameWrite& write : parsed->writes) {
    ASSERT_TRUE(within(write.payload, moved.bytes()));
  }

  // The moved-from stream can be assigned to and used again.
  source = builder_.buildModulePartial(plan_.prr(1), 8);
  const ParsedStream& reparsed = source.parsedFor(plan_.device());
  EXPECT_NE(&reparsed, parsed);
  EXPECT_EQ(reparsed.header.moduleId, 8u);
}

TEST_F(ParseMemoTest, MfwWireBytesMatchThePlan) {
  const Bitstream stream = builder_.buildModulePartial(plan_.prr(0), 7, 0.3);
  const MfwPlan plan = planMfw(stream, plan_.device());
  EXPECT_EQ(stream.mfwWireBytes(plan_.device()), plan.wireBytes);
  EXPECT_EQ(stream.mfwWireBytes(plan_.device()), plan.wireBytes);
  EXPECT_THROW((void)builder_.buildFull(1).mfwWireBytes(plan_.device()),
               util::BitstreamError);
}

TEST_F(ParseMemoTest, ConcurrentFirstUseYieldsOneParse) {
  constexpr std::size_t kWorkers = 8;
  const Bitstream stream = builder_.buildModulePartial(plan_.prr(0), 7);
  std::vector<fabric::Floorplan> nodes;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    nodes.push_back(fabric::makeDualPrrLayout());
  }

  exec::Pool pool{kWorkers};
  std::atomic<std::size_t> arrived{0};
  std::vector<std::size_t> workers(kWorkers);
  std::iota(workers.begin(), workers.end(), std::size_t{0});
  const std::vector<const ParsedStream*> seen = pool.parallelMap(
      workers,
      [&](std::size_t worker) {
        // Line the workers up (bounded, so a participant that never joins
        // cannot hang the test) before they all ask at once.
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (arrived.load() < kWorkers &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        const config::ConfigMemory memory{nodes[worker].device()};
        return &memory.parsedFor(stream);
      },
      exec::ForOptions{kWorkers, 1});

  ASSERT_EQ(seen.size(), kWorkers);
  for (const ParsedStream* parsed : seen) EXPECT_EQ(parsed, seen.front());
}

}  // namespace
}  // namespace prtr::bitstream
