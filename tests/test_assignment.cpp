#include "src/trackers/assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace ebbiot {
namespace {

TEST(AssignmentTest, EmptyProblem) {
  const Assignment a = solveAssignment({}, 0, 0);
  EXPECT_TRUE(a.columnOfRow.empty());
  EXPECT_DOUBLE_EQ(a.totalCost, 0.0);
}

TEST(AssignmentTest, SingleCell) {
  const Assignment a = solveAssignment({3.5}, 1, 1);
  ASSERT_EQ(a.columnOfRow.size(), 1U);
  EXPECT_EQ(a.columnOfRow[0], 0);
  EXPECT_DOUBLE_EQ(a.totalCost, 3.5);
}

TEST(AssignmentTest, TwoByTwoPicksOptimal) {
  // Greedy would take (0,0)=1 then forced into (1,1)=10 -> 11.
  // Optimal is (0,1)=2 + (1,0)=3 -> 5.
  const Assignment a = solveAssignment({1, 2, 3, 10}, 2, 2);
  EXPECT_EQ(a.columnOfRow[0], 1);
  EXPECT_EQ(a.columnOfRow[1], 0);
  EXPECT_DOUBLE_EQ(a.totalCost, 5.0);
}

TEST(AssignmentTest, RectangularMoreColumns) {
  // 2 rows x 3 cols: best is (0,2)=1 and (1,0)=2.
  const Assignment a = solveAssignment({5, 4, 1, 2, 6, 7}, 2, 3);
  EXPECT_EQ(a.columnOfRow[0], 2);
  EXPECT_EQ(a.columnOfRow[1], 0);
  EXPECT_DOUBLE_EQ(a.totalCost, 3.0);
}

TEST(AssignmentTest, RectangularMoreRowsLeavesOneUnassigned) {
  // 3 rows x 2 cols: one row must stay unmatched.
  const Assignment a = solveAssignment({1, 9, 2, 1, 8, 8}, 3, 2);
  int assigned = 0;
  for (int c : a.columnOfRow) {
    if (c >= 0) {
      ++assigned;
    }
  }
  EXPECT_EQ(assigned, 2);
  EXPECT_DOUBLE_EQ(a.totalCost, 2.0);  // (0,0)=1 + (1,1)=1
  EXPECT_EQ(a.columnOfRow[2], -1);
}

TEST(AssignmentTest, ForbiddenPairsNeverAssigned) {
  constexpr double kBig = 1e18;
  const Assignment a = solveAssignment({kBig, kBig, kBig, 1}, 2, 2, 1e17);
  EXPECT_EQ(a.columnOfRow[0], -1);
  EXPECT_EQ(a.columnOfRow[1], 1);
  EXPECT_DOUBLE_EQ(a.totalCost, 1.0);
}

TEST(AssignmentTest, SizeMismatchThrows) {
  EXPECT_THROW((void)solveAssignment({1, 2, 3}, 2, 2), LogicError);
}

// Property: matches brute force on random matrices up to 6x6.
struct BruteCase {
  std::size_t rows;
  std::size_t cols;
  int seed;
};

// Names the ctest case after the values; the default would print the
// struct's bytes, padding included, which differ between builds.
void PrintTo(const BruteCase& c, std::ostream* os) {
  *os << c.rows << "x" << c.cols << "_seed" << c.seed;
}

class AssignmentBruteForceProperty
    : public ::testing::TestWithParam<BruteCase> {};

double bruteForceBest(const std::vector<double>& cost, std::size_t rows,
                      std::size_t cols) {
  // Permute over the larger side; allow unassigned rows when rows > cols.
  std::vector<int> perm(std::max(rows, cols));
  std::iota(perm.begin(), perm.end(), 0);
  double best = 1e30;
  do {
    double total = 0.0;
    if (rows <= cols) {
      for (std::size_t r = 0; r < rows; ++r) {
        total += cost[r * cols + static_cast<std::size_t>(perm[r])];
      }
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        total += cost[static_cast<std::size_t>(perm[c]) * cols + c];
      }
    }
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST_P(AssignmentBruteForceProperty, MatchesExhaustiveSearch) {
  const auto [rows, cols, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<double> cost(rows * cols);
  for (double& c : cost) {
    c = rng.uniform(0.0, 100.0);
  }
  const Assignment a = solveAssignment(cost, rows, cols);
  // Verify one-to-one.
  std::vector<bool> colUsed(cols, false);
  std::size_t assigned = 0;
  for (int c : a.columnOfRow) {
    if (c < 0) {
      continue;
    }
    EXPECT_FALSE(colUsed[static_cast<std::size_t>(c)]);
    colUsed[static_cast<std::size_t>(c)] = true;
    ++assigned;
  }
  EXPECT_EQ(assigned, std::min(rows, cols));
  EXPECT_NEAR(a.totalCost, bruteForceBest(cost, rows, cols), 1e-9);
}

std::vector<BruteCase> makeBruteCases() {
  std::vector<BruteCase> cases;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}, {2, 5}, {3, 6}, {5, 2}, {6, 3}};
  for (const auto& [r, c] : shapes) {
    for (int seed = 1; seed <= 3; ++seed) {
      cases.push_back(BruteCase{r, c, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomMatrices, AssignmentBruteForceProperty,
                         ::testing::ValuesIn(makeBruteCases()));

}  // namespace
}  // namespace ebbiot
