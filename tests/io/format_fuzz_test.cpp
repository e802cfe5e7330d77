// Seeded mutation fuzzing of the two text parsers. Fixed-seed mutants of
// the committed `.ft` problems and of a `.scenario` using every directive
// are fed to read_problem / read_scenario: each call must return a value
// or a line-numbered diagnostic ("line N: ..."), and no exception may
// escape. read_scenario's two whole-file diagnostics (a missing header,
// an event past the last iteration) name no line.
#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "io/cli_util.hpp"
#include "io/problem_format.hpp"
#include "io/scenario_format.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched::io {
namespace {

/// Tokens a mutation splices in: every keyword of both formats, names the
/// inputs define, and numbers at the edges of each accept set.
const std::vector<std::string_view> kDictionary = {
    "algorithm", "architecture", "exec", "comm", "problem", "operation",
    "dependency", "processor", "link", "bus", "tolerate", "deadline",
    "extio-in", "extio-out", "mem", "comp", "scenario", "iterations", "dead",
    "crash", "silent", "link-dead", "link-crash", "suspected", "P1", "P9",
    "A", "I->A", "*", "#", "@", "@0", "@-1", "@99", "0", "-0", "-1",
    "2.5", "inf", "infinity", "nan", "1e999", "1e-400", "1e-320",
    "2147483648", "99999999999999999999", "+5", "0x10", "\n", "\r\n"};

/// Applies one to four random edits to `text`.
std::string mutate(std::string text, std::mt19937_64& rng) {
  const auto below = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  const auto word = [&] {
    return std::string(kDictionary[below(kDictionary.size())]);
  };
  const auto space_at = [&](std::size_t i) {
    return std::isspace(static_cast<unsigned char>(text[i])) != 0;
  };
  const std::size_t edits = 1 + below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = below(text.size() + 1);
    switch (rng() % 6) {
      case 0:  // overwrite a byte with any byte
        if (at < text.size()) text[at] = static_cast<char>(rng() % 256);
        break;
      case 1: {  // splice in a dictionary token between two spaces
        // One insert at a time: GCC 12 at -O3 flags the same splice built
        // with operator+ on temporaries as a possible overlap
        // (-Wrestrict).
        const std::string token = word();
        text.insert(at, 1, ' ');
        text.insert(at + 1, token);
        text.insert(at + 1 + token.size(), 1, ' ');
        break;
      }
      case 2:  // delete a short span
        text.erase(at, 1 + below(16));
        break;
      case 3: {  // replace the token under `at`
        std::size_t begin = at;
        while (begin > 0 && !space_at(begin - 1)) --begin;
        std::size_t end = at;
        while (end < text.size() && !space_at(end)) ++end;
        text.replace(begin, end - begin, word());
        break;
      }
      case 4: {  // duplicate the line holding `at`
        const std::size_t begin = text.rfind('\n', at == 0 ? 0 : at - 1);
        const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t end = text.find('\n', from);
        const std::string line =
            text.substr(from, end == std::string::npos ? std::string::npos
                                                       : end - from + 1);
        text.insert(from, line);
        break;
      }
      default:  // truncate
        text.resize(at);
        break;
    }
  }
  return text;
}

/// True for "line N: <message>" with N >= 1.
bool names_a_line(const std::string& message) {
  if (!message.starts_with("line ")) return false;
  std::size_t i = 5;
  while (i < message.size() &&
         std::isdigit(static_cast<unsigned char>(message[i]))) {
    ++i;
  }
  return i > 5 && message[5] != '0' && message.compare(i, 2, ": ") == 0;
}

const std::string kEveryDirective =
    "# every directive of the format\n"
    "scenario\n"
    "  iterations 3\n"
    "  dead P2\n"
    "  crash P3 4.25 @1\n"
    "  silent P1 2 4.5 @0\n"
    "  link-dead bus\n"
    "  link-crash bus 3 @2\n"
    "  suspected P1\n";

constexpr int kMutantsPerInput = 5000;

TEST(FormatFuzz, ProblemMutantsParseOrNameALine) {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const char* name : {"example1.ft", "certify_k2.ft"}) {
    const std::optional<std::string> seed =
        read_file(std::string(FTSCHED_SOURCE_DIR) + "/data/" + name);
    ASSERT_TRUE(seed.has_value()) << name;
    ASSERT_TRUE(read_problem(*seed).has_value()) << name;
    std::mt19937_64 rng(2026);
    for (int i = 0; i < kMutantsPerInput; ++i) {
      const std::string text = mutate(*seed, rng);
      try {
        const Expected<workload::OwnedProblem> result = read_problem(text);
        if (result.has_value()) {
          ++parsed;
          continue;
        }
        ++rejected;
        EXPECT_EQ(result.error().code, Error::Code::kInvalidInput) << text;
        EXPECT_TRUE(names_a_line(result.error().message))
            << result.error().message << "\n--- mutant " << i << " of "
            << name << ":\n" << text;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "escaped: " << error.what() << "\n--- mutant " << i
                      << " of " << name << ":\n" << text;
      }
    }
  }
  // The mutants reach both outcomes.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(FormatFuzz, ScenarioMutantsParseOrNameALine) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const ArchitectureGraph& arch = *ex.problem.architecture;
  ASSERT_TRUE(read_scenario(kEveryDirective, arch).has_value());
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  std::mt19937_64 rng(2026);
  for (int i = 0; i < 2 * kMutantsPerInput; ++i) {
    const std::string text = mutate(kEveryDirective, rng);
    try {
      const Expected<MissionPlan> result = read_scenario(text, arch);
      if (result.has_value()) {
        ++parsed;
        continue;
      }
      ++rejected;
      const std::string& message = result.error().message;
      EXPECT_EQ(result.error().code, Error::Code::kInvalidInput) << text;
      EXPECT_TRUE(names_a_line(message) ||
                  message == "missing 'scenario' header" ||
                  message.starts_with("an event targets iteration "))
          << message << "\n--- mutant " << i << ":\n" << text;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "escaped: " << error.what() << "\n--- mutant " << i
                    << ":\n" << text;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace ftsched::io
