// Tests for the prediction framework (properties, size models, cost model)
// and the compression manager (trade-off strategies, feedback controller).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/compression_manager.h"
#include "core/controller.h"
#include "core/cost_model.h"
#include "core/properties.h"
#include "core/size_model.h"
#include "core/tradeoff.h"
#include "datasets/generators.h"
#include "dict/dictionary.h"
#include "dict/front_coding.h"
#include "text/repair.h"
#include "util/bit_stream.h"

namespace adict {
namespace {

// -- Properties ---------------------------------------------------------------

TEST(Properties, ExactMeasurementOfKnownContent) {
  const std::vector<std::string> sorted = {"aa", "ab", "ba", "bb"};
  const DictionaryProperties props =
      SampleProperties(sorted, SamplingConfig::Exact());
  EXPECT_EQ(props.num_strings, 4u);
  EXPECT_DOUBLE_EQ(props.raw_chars, 8.0);
  EXPECT_EQ(props.distinct_chars, 2);
  // Uniform 'a'/'b' distribution: exactly one bit of order-0 entropy.
  EXPECT_NEAR(props.entropy0, 1.0, 1e-12);
  EXPECT_EQ(props.max_string_len, 2u);
  // Four distinct 2-grams, all covered by proper codes.
  EXPECT_DOUBLE_EQ(props.ng2_coverage, 1.0);
  EXPECT_EQ(props.ng2_table_grams, 4);
  EXPECT_DOUBLE_EQ(props.sampled_fraction, 1.0);
}

TEST(Properties, EmptyDictionary) {
  const std::vector<std::string> empty;
  const DictionaryProperties props =
      SampleProperties(empty, SamplingConfig::Default());
  EXPECT_EQ(props.num_strings, 0u);
  EXPECT_DOUBLE_EQ(props.raw_chars, 0.0);
}

TEST(Properties, SampleScalesRawChars) {
  // Fixed-length strings: any sample extrapolates raw_chars exactly.
  const std::vector<std::string> sorted = GenerateSurveyDataset("hash", 8000, 1);
  const DictionaryProperties props =
      SampleProperties(sorted, SamplingConfig{0.01, 500});
  EXPECT_NEAR(props.raw_chars, static_cast<double>(RawDataBytes(sorted)), 1.0);
  EXPECT_NEAR(props.sampled_fraction, 500.0 / 8000.0, 1e-9);
}

TEST(Properties, MinEntriesFloorApplies) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("mat", 3000, 2);
  // 1% of 3000 would be 30 entries; the floor raises it to 2000.
  const DictionaryProperties props =
      SampleProperties(sorted, SamplingConfig{0.01, 2000});
  EXPECT_NEAR(props.sampled_fraction, 2000.0 / 3000.0, 1e-9);
}

TEST(Properties, FrontCodingSeesSuffixSavings) {
  // URLs share long prefixes: the fc character count must be well below the
  // raw character count.
  const std::vector<std::string> sorted = GenerateSurveyDataset("url", 4000, 3);
  const DictionaryProperties props =
      SampleProperties(sorted, SamplingConfig::Exact());
  EXPECT_LT(props.fc_raw_chars, 0.5 * props.raw_chars);
  // Difference-to-first stores at least as many characters as chained
  // differences.
  EXPECT_GE(props.fc_df_raw_chars, props.fc_raw_chars);
}

/// Re-Pair payload ratio and rule count of a `symbol_bits` grammar trained
/// on `views` alone.
std::pair<double, uint64_t> SeparateRePair(
    int symbol_bits, const std::vector<std::string_view>& views) {
  auto codec = RePairCodec::Train(symbol_bits, views);
  BitWriter sink;
  uint64_t raw = 0;
  uint64_t bits = 0;
  for (std::string_view s : views) {
    raw += s.size();
    bits += codec->Encode(s, &sink);
  }
  return {static_cast<double>(bits) / 8 / static_cast<double>(raw),
          codec->num_rules()};
}

TEST(Properties, TwelveBitRePairMatchesSeparateTraining) {
  // At most 5000 entries: the sample is the whole dictionary, in order, so
  // the 12-bit figures (taken from the 16-bit training's first rules) must
  // equal those of a 12-bit grammar trained on its own. "src" exceeds the
  // 12-bit symbol space; "url" does not.
  for (const char* name : {"src", "url"}) {
    const std::vector<std::string> sorted =
        GenerateSurveyDataset(name, 3000, 7);
    const DictionaryProperties props =
        SampleProperties(sorted, SamplingConfig::Default());
    ASSERT_DOUBLE_EQ(props.sampled_fraction, 1.0);

    const std::vector<std::string_view> strings(sorted.begin(), sorted.end());
    const auto [rate, rules] = SeparateRePair(12, strings);
    EXPECT_EQ(props.rp12_rate, rate) << name;
    EXPECT_EQ(props.rp12_rules, rules) << name;

    std::vector<std::string_view> suffixes;
    for (size_t i = 0; i < sorted.size(); ++i) {
      const uint32_t prefix =
          i % FcBlockDict::kBlockSize == 0
              ? 0
              : std::min(CommonPrefixLength(sorted[i - 1], sorted[i]),
                         FcBlockDict::kMaxPrefixLength);
      suffixes.push_back(std::string_view(sorted[i]).substr(prefix));
    }
    const auto [fc_rate, fc_rules] = SeparateRePair(12, suffixes);
    EXPECT_EQ(props.fc_rp12_rate, fc_rate) << name;
    EXPECT_EQ(props.fc_rp12_rules, fc_rules) << name;
  }
}

// -- Size model ---------------------------------------------------------------

class SizeModelDatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SizeModelDatasetTest, ExactPropertiesPredictWithin20Percent) {
  const std::vector<std::string> sorted =
      GenerateSurveyDataset(GetParam(), 6000, 4);
  const DictionaryProperties props =
      SampleProperties(sorted, SamplingConfig::Exact());
  std::vector<double> errors;
  for (DictFormat format : AllDictFormats()) {
    auto dict = BuildDictionary(format, sorted);
    const double err = PredictionError(
        static_cast<double>(dict->MemoryBytes()),
        PredictDictionarySize(format, props));
    EXPECT_LT(err, 0.20) << DictFormatName(format);
    errors.push_back(err);
  }
  // Most predictions must be much tighter (paper: >75% below 2% at 100%).
  std::sort(errors.begin(), errors.end());
  EXPECT_LT(errors[errors.size() * 3 / 4], 0.05);
}

TEST_P(SizeModelDatasetTest, SampledPropertiesPredictWithin30Percent) {
  const std::vector<std::string> sorted =
      GenerateSurveyDataset(GetParam(), 12000, 5);
  const DictionaryProperties props =
      SampleProperties(sorted, SamplingConfig{0.01, 1000});
  std::vector<double> errors;
  for (DictFormat format : AllDictFormats()) {
    auto dict = BuildDictionary(format, sorted);
    const double err = PredictionError(
        static_cast<double>(dict->MemoryBytes()),
        PredictDictionarySize(format, props));
    EXPECT_LT(err, 0.30) << DictFormatName(format);
    errors.push_back(err);
  }
  std::sort(errors.begin(), errors.end());
  EXPECT_LT(errors[errors.size() * 3 / 4], 0.12);
}

INSTANTIATE_TEST_SUITE_P(Datasets, SizeModelDatasetTest,
                         ::testing::Values("mat", "url", "rand2"),
                         [](const auto& info) { return info.param; });

TEST(SizeModel, RanksColumnBcBestOnFixedLengthData) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("hash", 5000, 6);
  const DictionaryProperties props =
      SampleProperties(sorted, SamplingConfig::Exact());
  const double colbc = PredictDictionarySize(DictFormat::kColumnBc, props);
  const double array = PredictDictionarySize(DictFormat::kArray, props);
  EXPECT_LT(colbc, array);
}

TEST(SizeModel, RanksRePairBestOnRedundantText) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("src", 5000, 7);
  const DictionaryProperties props =
      SampleProperties(sorted, SamplingConfig::Exact());
  double best = 1e18;
  DictFormat best_format = DictFormat::kArray;
  for (DictFormat format : AllDictFormats()) {
    const double size = PredictDictionarySize(format, props);
    if (size < best) {
      best = size;
      best_format = format;
    }
  }
  EXPECT_TRUE(best_format == DictFormat::kFcBlockRp12 ||
              best_format == DictFormat::kFcBlockRp16 ||
              best_format == DictFormat::kArrayRp12 ||
              best_format == DictFormat::kArrayRp16)
      << DictFormatName(best_format);
}

TEST(SizeModel, PredictionErrorDefinition) {
  EXPECT_DOUBLE_EQ(PredictionError(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(PredictionError(100, 90), 0.1);
  EXPECT_DOUBLE_EQ(PredictionError(100, 110), 0.1);
}

// -- Cost model ---------------------------------------------------------------

TEST(CostModel, DefaultHasPositiveCostsForAllFormats) {
  const CostModel model = CostModel::Default();
  for (DictFormat format : AllDictFormats()) {
    const MethodCosts& costs = model.costs(format);
    EXPECT_GT(costs.extract_us, 0) << DictFormatName(format);
    EXPECT_GT(costs.locate_us, 0) << DictFormatName(format);
    EXPECT_GT(costs.construct_us, 0) << DictFormatName(format);
  }
}

TEST(CostModel, DefaultOrdersUncompressedFasterThanRePair) {
  const CostModel model = CostModel::Default();
  EXPECT_LT(model.costs(DictFormat::kArray).extract_us,
            model.costs(DictFormat::kArrayRp16).extract_us);
  EXPECT_LT(model.costs(DictFormat::kArray).construct_us,
            model.costs(DictFormat::kArrayRp16).construct_us);
}

TEST(CostModel, SetCostsOverrides) {
  CostModel model = CostModel::Default();
  model.set_costs(DictFormat::kArray, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(model.costs(DictFormat::kArray).extract_us, 1.0);
  EXPECT_DOUBLE_EQ(model.costs(DictFormat::kArray).locate_us, 2.0);
  EXPECT_DOUBLE_EQ(model.costs(DictFormat::kArray).construct_us, 3.0);
}

TEST(CostModel, CalibrationProducesPlausibleConstants) {
  // Tiny calibration run: magnitudes are machine dependent but must be
  // positive and roughly ordered.
  const CostModel model = CalibrateCostModel({500, 500, 1});
  for (DictFormat format : AllDictFormats()) {
    EXPECT_GT(model.costs(format).extract_us, 0) << DictFormatName(format);
  }
  EXPECT_LT(model.costs(DictFormat::kArray).extract_us,
            model.costs(DictFormat::kFcBlockRp16).extract_us);
}

// -- Trade-off evaluation and selection ----------------------------------------

DictionaryProperties TestProps() {
  const std::vector<std::string> sorted = GenerateSurveyDataset("mat", 4000, 8);
  return SampleProperties(sorted, SamplingConfig::Exact());
}

TEST(Tradeoff, EvaluateProducesAllCandidates) {
  ColumnUsage usage;
  usage.num_extracts = 10000;
  usage.num_locates = 100;
  usage.lifetime_seconds = 600;
  usage.column_vector_bytes = 50000;
  const std::vector<Candidate> candidates =
      EvaluateCandidates(TestProps(), usage, CostModel::Default());
  ASSERT_EQ(candidates.size(), static_cast<size_t>(kNumDictFormats));
  for (const Candidate& cand : candidates) {
    EXPECT_GT(cand.size_bytes, 50000.0) << DictFormatName(cand.format);
    EXPECT_GT(cand.rel_time, 0.0) << DictFormatName(cand.format);
  }
}

TEST(Tradeoff, RelTimeScalesWithAccessCounts) {
  const DictionaryProperties props = TestProps();
  ColumnUsage cold;
  cold.num_extracts = 10;
  cold.lifetime_seconds = 600;
  ColumnUsage hot = cold;
  hot.num_extracts = 10000000;
  const auto cold_cands = EvaluateCandidates(props, cold, CostModel::Default());
  const auto hot_cands = EvaluateCandidates(props, hot, CostModel::Default());
  for (size_t i = 0; i < cold_cands.size(); ++i) {
    EXPECT_GT(hot_cands[i].rel_time, cold_cands[i].rel_time);
    EXPECT_DOUBLE_EQ(hot_cands[i].size_bytes, cold_cands[i].size_bytes);
  }
}

class StrategyTest : public ::testing::TestWithParam<TradeoffStrategy> {};

TEST_P(StrategyTest, ZeroCSelectsNearSmallest) {
  ColumnUsage usage;
  usage.num_extracts = 1000;
  usage.lifetime_seconds = 600;
  const auto candidates =
      EvaluateCandidates(TestProps(), usage, CostModel::Default());
  const SelectionDetails details =
      SelectFormatDetailed(candidates, 0.0, GetParam());
  // With c = 0 only variants at most as large as the smallest are admitted,
  // so the selected size equals the minimum size.
  double min_size = 1e18, selected_size = 0;
  for (const Candidate& cand : candidates) {
    min_size = std::min(min_size, cand.size_bytes);
    if (cand.format == details.selected) selected_size = cand.size_bytes;
  }
  EXPECT_DOUBLE_EQ(selected_size, min_size);
}

TEST_P(StrategyTest, HugeCSelectsFastest) {
  ColumnUsage usage;
  usage.num_extracts = 1000;
  usage.lifetime_seconds = 600;
  const auto candidates =
      EvaluateCandidates(TestProps(), usage, CostModel::Default());
  const SelectionDetails details =
      SelectFormatDetailed(candidates, 1e6, GetParam());
  EXPECT_EQ(details.selected, details.fastest);
}

TEST_P(StrategyTest, SelectedTimeMonotoneInC) {
  ColumnUsage usage;
  usage.num_extracts = 50000;
  usage.num_locates = 500;
  usage.lifetime_seconds = 600;
  const auto candidates =
      EvaluateCandidates(TestProps(), usage, CostModel::Default());
  double prev_time = 1e18;
  for (double c : {0.0, 0.01, 0.1, 0.5, 1.0, 5.0, 50.0}) {
    const DictFormat selected = SelectFormat(candidates, c, GetParam());
    double time = 0;
    for (const Candidate& cand : candidates) {
      if (cand.format == selected) time = cand.rel_time;
    }
    EXPECT_LE(time, prev_time) << "c = " << c;
    prev_time = time;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
                         ::testing::Values(TradeoffStrategy::kConst,
                                           TradeoffStrategy::kRel,
                                           TradeoffStrategy::kTilt),
                         [](const auto& info) {
                           return std::string(
                               TradeoffStrategyName(info.param));
                         });

TEST(Tradeoff, TiltAdmitsFasterFormatsForHotColumns) {
  // The paper's motivation for tilt: with the same c, a hot column should
  // get a faster (bigger) dictionary than a cold one. f_const cannot do
  // that; f_tilt can.
  const DictionaryProperties props = TestProps();
  ColumnUsage cold;
  cold.num_extracts = 100;
  cold.lifetime_seconds = 600;
  ColumnUsage hot = cold;
  // Extract-dominated and lifetime-saturating: the smallest variant would
  // spend more than the whole merge interval answering extracts, which is
  // the boundary condition at which tilt must hand out the fastest format.
  // With the calibrated constants, the smallest candidate extracts in a few
  // hundred nanoseconds; 20e9 extracts over a 600 s lifetime puts its
  // rel_time well above 1 for any plausible calibration.
  hot.num_extracts = 20000000000ull;

  const CostModel costs = CostModel::Default();
  const double c = 0.05;
  const auto cold_sel = SelectFormatDetailed(
      EvaluateCandidates(props, cold, costs), c, TradeoffStrategy::kTilt);
  const auto hot_sel = SelectFormatDetailed(
      EvaluateCandidates(props, hot, costs), c, TradeoffStrategy::kTilt);
  const auto hot_const = SelectFormatDetailed(
      EvaluateCandidates(props, hot, costs), c, TradeoffStrategy::kConst);

  // Identical admission set regardless of heat for const...
  EXPECT_EQ(hot_const.selected, SelectFormatDetailed(
                                    EvaluateCandidates(props, cold, costs), c,
                                    TradeoffStrategy::kConst)
                                    .selected);
  // ...but tilt upgrades the hot column to the fastest format.
  EXPECT_EQ(hot_sel.selected, hot_sel.fastest);
  EXPECT_NE(cold_sel.selected, cold_sel.fastest);
}

TEST(Tradeoff, DetailsExposeDividingLine) {
  ColumnUsage usage;
  usage.num_extracts = 10000;
  usage.lifetime_seconds = 600;
  const auto candidates =
      EvaluateCandidates(TestProps(), usage, CostModel::Default());
  const SelectionDetails details =
      SelectFormatDetailed(candidates, 0.3, TradeoffStrategy::kTilt);
  ASSERT_EQ(details.threshold.size(), candidates.size());
  // The selected candidate must be admitted by its own threshold.
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].format == details.selected) {
      EXPECT_LE(candidates[i].size_bytes, details.threshold[i]);
    }
  }
}

// -- Feedback controller --------------------------------------------------------

TEST(Controller, MemoryPressureLowersC) {
  TradeoffController controller;
  const double initial = controller.c();
  for (int i = 0; i < 10; ++i) controller.Observe(0.0, 100.0);  // no free mem
  EXPECT_LT(controller.c(), initial);
}

TEST(Controller, HeadroomRaisesC) {
  TradeoffController controller;
  const double initial = controller.c();
  for (int i = 0; i < 10; ++i) controller.Observe(90.0, 100.0);
  EXPECT_GT(controller.c(), initial);
}

TEST(Controller, DeadBandHoldsCAtTarget) {
  TradeoffController::Options options;
  options.target_free_fraction = 0.25;
  TradeoffController controller(options);
  const double initial = controller.c();
  for (int i = 0; i < 20; ++i) controller.Observe(25.0, 100.0);
  EXPECT_DOUBLE_EQ(controller.c(), initial);
}

TEST(Controller, CStaysWithinBounds) {
  TradeoffController::Options options;
  options.min_c = 0.01;
  options.max_c = 1.0;
  TradeoffController controller(options);
  for (int i = 0; i < 100; ++i) controller.Observe(0.0, 100.0);
  EXPECT_GE(controller.c(), 0.01);
  for (int i = 0; i < 200; ++i) controller.Observe(100.0, 100.0);
  EXPECT_LE(controller.c(), 1.0);
}

TEST(Controller, SmoothingDampensSpikes) {
  TradeoffController::Options options;
  options.smoothing = 0.1;
  TradeoffController controller(options);
  controller.Observe(50.0, 100.0);
  EXPECT_NEAR(controller.smoothed_free_fraction(), 0.5, 1e-12);
  // A single spike to 100% moves the smoothed value only slightly.
  controller.Observe(100.0, 100.0);
  EXPECT_NEAR(controller.smoothed_free_fraction(), 0.55, 1e-12);
}

// -- Compression manager ---------------------------------------------------------

TEST(CompressionManager, LowCFavorsCompressionHighCFavorsSpeed) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("mat", 4000, 9);
  ColumnUsage usage;
  usage.num_extracts = 100000;
  usage.lifetime_seconds = 600;

  CompressionManager manager;
  manager.set_c(1e-3);
  const DictFormat small_format = manager.ChooseFormat(sorted, usage);
  manager.set_c(10.0);
  const DictFormat fast_format = manager.ChooseFormat(sorted, usage);

  auto small_dict = BuildDictionary(small_format, sorted);
  auto fast_dict = BuildDictionary(fast_format, sorted);
  EXPECT_LE(small_dict->MemoryBytes(), fast_dict->MemoryBytes());

  const CostModel costs = CostModel::Default();
  EXPECT_LE(costs.costs(fast_format).extract_us,
            costs.costs(small_format).extract_us);
}

TEST(CompressionManager, BuildAdaptiveDictionaryIsUsable) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("engl", 2000, 10);
  CompressionManager manager;
  ColumnUsage usage;
  usage.num_extracts = 1000;
  usage.lifetime_seconds = 600;
  auto dict = manager.BuildAdaptiveDictionary(sorted, usage);
  ASSERT_NE(dict, nullptr);
  EXPECT_EQ(dict->size(), sorted.size());
  EXPECT_EQ(dict->Extract(17), sorted[17]);
  EXPECT_TRUE(dict->Locate(sorted[42]).found);
}

TEST(CompressionManager, ControllerDrivesFormatChoice) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("url", 3000, 11);
  ColumnUsage usage;
  usage.num_extracts = 100000;
  usage.lifetime_seconds = 600;

  CompressionManager manager;
  // Sustained memory pressure...
  for (int i = 0; i < 30; ++i) manager.controller().Observe(0.0, 100.0);
  auto pressured = BuildDictionary(manager.ChooseFormat(sorted, usage), sorted);
  // ...vs sustained head-room.
  for (int i = 0; i < 60; ++i) manager.controller().Observe(100.0, 100.0);
  auto relaxed = BuildDictionary(manager.ChooseFormat(sorted, usage), sorted);
  EXPECT_LE(pressured->MemoryBytes(), relaxed->MemoryBytes());
}

}  // namespace
}  // namespace adict
