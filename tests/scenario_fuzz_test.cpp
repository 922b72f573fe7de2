// Fuzz-style round-trip tests for the .scn scenario parser: arbitrary
// byte soup and mutated canonical scenarios must either fail with a clean
// CheckError or parse into a canonical fixpoint (parse -> canonical ->
// reparse -> same canonical text). Never a crash, never a different
// exception type — this binary runs under the sanitizer CI job.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "core/scenario.h"
#include "util/check.h"

namespace fmnet {
namespace {

/// The invariant every input must satisfy: clean rejection or canonical
/// fixpoint. Returns true if the input parsed.
bool parse_or_reject(const std::string& text) {
  core::Scenario s;
  try {
    s = core::parse_scenario_string(text);
  } catch (const CheckError&) {
    return false;  // clean, typed rejection
  }
  // Parsed: canonical form must be a fixpoint of parse -> serialise.
  const std::string canon = core::canonical_scenario(s);
  core::Scenario reparsed;
  EXPECT_NO_THROW(reparsed = core::parse_scenario_string(canon))
      << "canonical form failed to reparse:\n"
      << canon;
  EXPECT_EQ(core::canonical_scenario(reparsed), canon);
  return true;
}

TEST(ScenarioFuzz, RandomByteSoupNeverCrashes) {
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<int> len_dist(0, 400);
  // Mostly printable with some structural and control characters mixed in.
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz"
      "0123456789.-_= \t\n#[]:,+eE\r\x01\x7f";
  std::uniform_int_distribution<std::size_t> ch_dist(0, alphabet.size() - 1);
  for (int iter = 0; iter < 400; ++iter) {
    std::string text;
    const int len = len_dist(rng);
    text.reserve(static_cast<std::size_t>(len));
    for (int i = 0; i < len; ++i) text.push_back(alphabet[ch_dist(rng)]);
    parse_or_reject(text);
  }
}

TEST(ScenarioFuzz, MutatedCanonicalScenariosNeverCrash) {
  core::Scenario base;
  base.faults.seed = 7;
  base.faults.periodic_drop = 0.3;
  base.faults.lanz_drop = 0.25;
  base.faults.noise = 4.0;
  base.faults.snmp_wrap_bits = 32;
  base.faults.quantize = 4;
  const std::string seed_text = core::canonical_scenario(base);

  std::mt19937 rng(4242);
  std::uniform_int_distribution<int> op_dist(0, 3);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::size_t parsed = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string text = seed_text;
    std::uniform_int_distribution<int> muts_dist(1, 8);
    const int muts = muts_dist(rng);
    for (int m = 0; m < muts && !text.empty(); ++m) {
      std::uniform_int_distribution<std::size_t> pos_dist(0, text.size() - 1);
      const std::size_t pos = pos_dist(rng);
      switch (op_dist(rng)) {
        case 0:  // flip one byte
          text[pos] = static_cast<char>(byte_dist(rng));
          break;
        case 1:  // delete one byte
          text.erase(pos, 1);
          break;
        case 2:  // duplicate a slice
          text.insert(pos, text.substr(pos, 17));
          break;
        default:  // truncate
          text.resize(pos);
          break;
      }
    }
    parsed += parse_or_reject(text) ? 1u : 0u;
  }
  // Sanity: the mutation engine produces a healthy mix — some inputs stay
  // parseable, some get rejected. All-one-bucket means the harness rotted.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 400u);
}

TEST(ScenarioFuzz, CanonicalFormsAreFixpoints) {
  // The clean default, a fully faulted scenario, and a severity-0 config
  // all survive canonical -> parse -> canonical unchanged.
  core::Scenario clean;
  EXPECT_TRUE(parse_or_reject(core::canonical_scenario(clean)));

  core::Scenario faulted;
  faulted.faults.seed = 123456789;
  faulted.faults.severity = 0.75;
  faulted.faults.periodic_drop = 0.1;
  faulted.faults.lanz_drop = 0.2;
  faulted.faults.lanz_late = 0.3;
  faulted.faults.snmp_jitter = 0.4;
  faulted.faults.snmp_wrap_bits = 16;
  faulted.faults.duplicate = 0.05;
  faulted.faults.reorder = 0.06;
  faulted.faults.noise = 2.5;
  faulted.faults.quantize = 8;
  EXPECT_TRUE(parse_or_reject(core::canonical_scenario(faulted)));

  core::Scenario zeroed = faulted;
  zeroed.faults.severity = 0.0;
  EXPECT_TRUE(parse_or_reject(core::canonical_scenario(zeroed)));

  // Non-default autoencoder hyperparameters and C4 envelope keys survive
  // the round trip too (they serialise after the serve block).
  core::Scenario tuned;
  tuned.autoencoder.hidden = 96;
  tuned.autoencoder.latent = 24;
  tuned.autoencoder.penalty_weight = 2.5f;
  tuned.c4.arrival_burst = 120.0;
  tuned.c4.arrival_rate = 4.5;
  tuned.c4.latency_ms = 2.0;
  EXPECT_TRUE(parse_or_reject(core::canonical_scenario(tuned)));
}

TEST(ScenarioFuzz, StructuredEdgeCasesRejectCleanly) {
  // Hand-picked nasties: each must throw CheckError, nothing else.
  const std::string cases[] = {
      "campaign.seed = 99999999999999999999999999",  // integer overflow
      "campaign.ports = -3",
      "data.factor = 0",
      "faults.periodic-drop = 1.5",
      "faults.snmp-wrap-bits = 64",
      "faults.noise = -2",
      "faults.severity = nan",
      "no-such-key = 1",
      "= value-without-key",
      "[unterminated",
      "methods = linear, no-such-method",
      "faults.quantize = 0.5",
      "impute.autoencoder.hidden = 0",
      "impute.autoencoder.latent = -1",
      "impute.autoencoder.penalty-weight = -1",
      "metrics.c4.arrival-burst = -2",
      "metrics.c4.latency-ms = nan",
      // Non-finite reals are rejected for every key, not only where a
      // range check happens to catch them.
      "train.lr = inf",
      "train.lr-final-fraction = infinity",
      "train.kal-weight = 1e39",  // finite double, infinite float
      "faults.noise = inf",
      "metrics.c4.arrival-rate = inf",
      // A zero learning rate trains nothing; a zero clip norm zeroes
      // every gradient.
      "train.lr = 0",
      "train.grad-clip = 0",
  };
  for (const auto& text : cases) {
    try {
      core::parse_scenario_string(text);
      ADD_FAILURE() << "input was not rejected: " << text;
    } catch (const CheckError& e) {
      // Every rejection says where.
      EXPECT_NE(std::string(e.what()).find("<string>:1:"), std::string::npos)
          << text << " -> " << e.what();
    }
  }
}

TEST(ScenarioFuzz, UnknownMethodErrorCarriesOriginAndLine) {
  // Regression: option-level failures used to surface without saying where
  // in the file they came from. The parser must prefix origin:line.
  const std::string text = "name = x\n\nmethods = no-such-method\n";
  try {
    core::parse_scenario_string(text);
    FAIL() << "unknown method was accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("<string>:3"), std::string::npos) << what;
    EXPECT_NE(what.find("no-such-method"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fmnet
