// Tests for the shared bench::Options vocabulary every bench binary and
// the prtrsim CLI parse their common flags through.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/options.hpp"
#include "util/error.hpp"

namespace prtr::bench {
namespace {

Options parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  return Options::parse("demo", static_cast<int>(argv.size()), argv.data());
}

TEST(BenchOptions, DefaultsAreQuiet) {
  const Options options = parse({});
  EXPECT_FALSE(options.jsonRequested());
  EXPECT_FALSE(options.traceRequested());
  EXPECT_FALSE(options.profileRequested());
  EXPECT_FALSE(options.seedSet());
  EXPECT_FALSE(options.helpRequested());
  EXPECT_GE(options.threads(), 1u);
  EXPECT_TRUE(options.rest().empty());
  EXPECT_EQ(options.seedOr(77), 77u);
}

TEST(BenchOptions, ParsesTheSharedVocabulary) {
  const Options options =
      parse({"--json", "out.json", "--trace", "t.json", "--profile", "p.json",
             "--threads", "3", "--seed", "123"});
  EXPECT_EQ(options.jsonPath(), "out.json");
  EXPECT_EQ(options.tracePath(), "t.json");
  EXPECT_EQ(options.profilePath(), "p.json");
  EXPECT_EQ(options.threads(), 3u);
  EXPECT_TRUE(options.seedSet());
  EXPECT_EQ(options.seedOr(77), 123u);
  EXPECT_TRUE(options.rest().empty());
}

TEST(BenchOptions, KeepsUnrecognisedArgumentsInOrder) {
  const Options options =
      parse({"--calls", "40", "--json", "o.json", "--timeline"});
  EXPECT_EQ(options.rest(),
            (std::vector<std::string>{"--calls", "40", "--timeline"}));
  EXPECT_EQ(options.jsonPath(), "o.json");
}

TEST(BenchOptions, RejectsMissingOrMalformedValues) {
  EXPECT_THROW(parse({"--json"}), util::DomainError);
  EXPECT_THROW(parse({"--threads"}), util::DomainError);
  EXPECT_THROW(parse({"--threads", "0"}), util::DomainError);
  EXPECT_THROW(parse({"--threads", "two"}), util::DomainError);
  EXPECT_THROW(parse({"--seed", "1x"}), util::DomainError);
  EXPECT_THROW(parse({"--json", ""}), util::DomainError);
  // Checked in-process only: a binary handed these would otherwise ask the
  // OS for billions of threads.
  for (const char* bad : {"-1", "+1", "", "abc", "1e999",
                          "18446744073709551616"}) {
    EXPECT_THROW(parse({"--threads", bad}), util::DomainError) << bad;
    EXPECT_THROW(parse({"--seed", bad}), util::DomainError) << bad;
  }
  const std::string aboveCeiling = std::to_string(kMaxThreads + 1);
  EXPECT_THROW(parse({"--threads", aboveCeiling.c_str()}), util::DomainError);
  const std::string ceiling = std::to_string(kMaxThreads);
  EXPECT_EQ(parse({"--threads", ceiling.c_str()}).threads(), kMaxThreads);
}

TEST(BenchOptions, ParseUnsignedTakesDigitsUpToTheLargestValue) {
  EXPECT_EQ(parseUnsigned("demo", "--n", "0"), 0u);
  EXPECT_EQ(parseUnsigned("demo", "--n", "18446744073709551615"),
            18446744073709551615u);
  EXPECT_THROW((void)parseUnsigned("demo", "--n", " 1"), util::DomainError);
  EXPECT_THROW((void)parseUnsigned("demo", "--n", "0x10"), util::DomainError);
}

TEST(BenchOptions, RejectsLeftoversAndUnhonouredFlags) {
  EXPECT_NO_THROW(parse({"--json", "o.json"}).requireNoRest());
  EXPECT_THROW(parse({"--jsn", "o.json"}).requireNoRest(), util::DomainError);
  const Options options = parse({"--trace", "t.json", "--seed", "3"});
  EXPECT_NO_THROW(options.reject({"--json", "--profile"}, "demo"));
  EXPECT_THROW(options.reject({"--json", "--trace"}, "demo"),
               util::DomainError);
  EXPECT_THROW(options.reject({"--seed"}, "demo"), util::DomainError);
}

TEST(BenchOptions, UsageListsEveryFlagAndTheExtraBlock) {
  const std::string usage = Options::usage("demo", "  --calls N  call count");
  EXPECT_NE(usage.find("usage: demo"), std::string::npos);
  for (const char* flag :
       {"--json", "--trace", "--profile", "--threads", "--seed", "--help"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
  EXPECT_NE(usage.find("--calls N"), std::string::npos);
  EXPECT_EQ(usage.back(), '\n');
}

TEST(BenchOptions, HelpFlagIsRecognisedAnywhere) {
  EXPECT_TRUE(parse({"--json", "o.json", "--help"}).helpRequested());
}

}  // namespace
}  // namespace prtr::bench
