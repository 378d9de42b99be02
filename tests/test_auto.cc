// Engine auto-path tests: correctness, gemm fallback on small problems,
// decision caching, shape-sensitivity of the choice, and the executed-
// decision report.

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/linalg/ops.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

// Shared fixture state: one Engine serves every test in the suite.
class AutoTest : public ::testing::Test {
 protected:
  static Engine& engine() {
    static Engine* e = new Engine();  // leaked: tests never tear it down
    return *e;
  }
};

TEST_F(AutoTest, MultiplyMatchesReference) {
  for (index_t s : {64, 200, 331}) {
    test::RandomProblem p = test::random_problem(s, s, s, s);
    ASSERT_TRUE(engine().multiply(p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), 1e-10 * s) << "s=" << s;
  }
}

TEST_F(AutoTest, TinyProblemsFallBackToGemm) {
  const AutoChoice choice = engine().choice_for(64, 64, 64);
  EXPECT_TRUE(choice.use_gemm);
  EXPECT_EQ(choice.description, "gemm");
}

TEST_F(AutoTest, HugeSquareSelectsAnFmmPlan) {
  // At paper-scale square sizes the model must prefer some FMM plan.
  const AutoChoice choice = engine().choice_for(16384, 16384, 16384);
  EXPECT_FALSE(choice.use_gemm);
  ASSERT_TRUE(choice.plan.has_value());
  EXPECT_LT(choice.plan->R(),
            choice.plan->flat.classical_mults());  // genuinely fast
}

TEST_F(AutoTest, RankKShapePrefersModestPartitions) {
  // m = n >> k: thin partitions of k (Kt small) should be chosen; a plan
  // with Kt > 4 would split k below the blocking sweet spot.
  const AutoChoice choice = engine().choice_for(16384, 16384, 1024);
  if (!choice.use_gemm) {
    EXPECT_LE(choice.plan->Kt(), 4) << choice.description;
  }
}

TEST_F(AutoTest, ChoiceIsCachedPerShape) {
  // The per-shape decision is cached: a repeat lookup is a choice-cache
  // hit, and the decision is stable.
  const auto before = engine().stats();
  const AutoChoice a = engine().choice_for(512, 512, 512);
  const AutoChoice b = engine().choice_for(512, 512, 512);
  const auto after = engine().stats();
  EXPECT_EQ(a.description, b.description);
  EXPECT_EQ(a.predicted_seconds, b.predicted_seconds);
  EXPECT_GE(after.choice_hits, before.choice_hits + 1);
}

TEST_F(AutoTest, MultiplyReportsExecutedDecision) {
  Matrix a = Matrix::random(96, 48, 1);
  Matrix b = Matrix::random(48, 96, 2);
  Matrix c = Matrix::zero(96, 96);
  std::shared_ptr<const AutoChoice> executed;
  ASSERT_TRUE(engine().multiply(c.view(), a.view(), b.view(), &executed).ok());
  ASSERT_NE(executed, nullptr);
  EXPECT_FALSE(executed->description.empty());
  // A what-if probe at another shape leaves the report alone, and the
  // report is the decision choice_for gives for the executed shape.
  (void)engine().choice_for(16384, 16384, 16384);
  EXPECT_EQ(executed->description, engine().choice_for(96, 96, 48).description);
}

TEST_F(AutoTest, NonSquareShapesGetDistinctDecisions) {
  const AutoChoice square = engine().choice_for(8192, 8192, 8192);
  const AutoChoice rank_k = engine().choice_for(8192, 8192, 512);
  // The decisions need not differ, but the predicted times must reflect
  // the very different work volumes.
  EXPECT_GT(square.predicted_seconds, rank_k.predicted_seconds * 4);
}

}  // namespace
}  // namespace fmm
