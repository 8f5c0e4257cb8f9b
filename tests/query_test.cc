#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <variant>

#include "gtest/gtest.h"
#include "io/env.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/format.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "storage/record.h"
#include "test_util.h"
#include "util/random.h"

namespace msv::query {
namespace {

using msv::testing::ValueOrDie;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = ValueOrDie(Tokenize("select SeLeCt FROM"));
  ASSERT_EQ(tokens.size(), 4u);  // 3 + end
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[1].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[2].IsKeyword("FROM"));
  EXPECT_EQ(tokens[3].type, TokenType::kEnd);
}

TEST(LexerTest, IdentifiersPreserveCase) {
  auto tokens = ValueOrDie(Tokenize("MySam my_col2"));
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "MySam");
  EXPECT_EQ(tokens[1].text, "my_col2");
}

TEST(LexerTest, Numbers) {
  auto tokens = ValueOrDie(Tokenize("42 3.5 -7 1e3"));
  EXPECT_DOUBLE_EQ(tokens[0].number, 42);
  EXPECT_DOUBLE_EQ(tokens[1].number, 3.5);
  EXPECT_DOUBLE_EQ(tokens[2].number, -7);
  EXPECT_DOUBLE_EQ(tokens[3].number, 1000);
}

TEST(LexerTest, SymbolsAndComments) {
  auto tokens = ValueOrDie(Tokenize("( * , ; -- ignored\n )"));
  EXPECT_TRUE(tokens[0].IsSymbol('('));
  EXPECT_TRUE(tokens[1].IsSymbol('*'));
  EXPECT_TRUE(tokens[2].IsSymbol(','));
  EXPECT_TRUE(tokens[3].IsSymbol(';'));
  EXPECT_TRUE(tokens[4].IsSymbol(')'));
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_FALSE(Tokenize("SELECT @ FROM").ok());
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, CreateView) {
  auto stmt = ValueOrDie(ParseOne(
      "CREATE MATERIALIZED SAMPLE VIEW MySam AS SELECT * FROM SALE "
      "INDEX ON day;"));
  auto& create = std::get<CreateViewStmt>(stmt);
  EXPECT_EQ(create.view, "MySam");
  EXPECT_EQ(create.table, "SALE");
  ASSERT_EQ(create.index_columns.size(), 1u);
  EXPECT_EQ(create.index_columns[0], "day");
}

TEST(ParserTest, CreateViewMultiColumn) {
  auto stmt = ValueOrDie(ParseOne(
      "create materialized sample view s as select * from sale "
      "index on day, amount"));
  auto& create = std::get<CreateViewStmt>(stmt);
  ASSERT_EQ(create.index_columns.size(), 2u);
  EXPECT_EQ(create.index_columns[1], "amount");
}

TEST(ParserTest, SampleWithPredicatesAndLimit) {
  auto stmt = ValueOrDie(ParseOne(
      "SAMPLE FROM v WHERE day BETWEEN 10 AND 20 AND amount BETWEEN 1 AND 2 "
      "LIMIT 7;"));
  auto& sample = std::get<SampleStmt>(stmt);
  EXPECT_EQ(sample.view, "v");
  ASSERT_EQ(sample.predicates.size(), 2u);
  EXPECT_EQ(sample.predicates[0].column, "day");
  EXPECT_DOUBLE_EQ(sample.predicates[0].lo, 10);
  EXPECT_DOUBLE_EQ(sample.predicates[1].hi, 2);
  EXPECT_EQ(sample.limit, 7u);
}

TEST(ParserTest, EstimateVariants) {
  auto avg = std::get<EstimateStmt>(ValueOrDie(ParseOne(
      "ESTIMATE AVG(amount) FROM v WHERE day BETWEEN 0 AND 1 SAMPLES 500 "
      "CONFIDENCE 0.99;")));
  EXPECT_EQ(avg.agg, EstimateStmt::Agg::kAvg);
  EXPECT_EQ(avg.column, "amount");
  EXPECT_EQ(avg.samples, 500u);
  EXPECT_DOUBLE_EQ(avg.confidence, 0.99);

  auto count = std::get<EstimateStmt>(
      ValueOrDie(ParseOne("ESTIMATE COUNT(*) FROM v;")));
  EXPECT_EQ(count.agg, EstimateStmt::Agg::kCount);

  auto sum = std::get<EstimateStmt>(
      ValueOrDie(ParseOne("ESTIMATE SUM(amount) FROM v;")));
  EXPECT_EQ(sum.agg, EstimateStmt::Agg::kSum);
}

TEST(ParserTest, GroupByClause) {
  auto stmt = std::get<EstimateStmt>(ValueOrDie(ParseOne(
      "ESTIMATE SUM(amount) FROM v WHERE day BETWEEN 0 AND 9 "
      "GROUP BY supp SAMPLES 100;")));
  EXPECT_EQ(stmt.group_by, "supp");
  EXPECT_EQ(stmt.samples, 100u);
  EXPECT_FALSE(ParseOne("ESTIMATE SUM(a) FROM v GROUP supp;").ok());
}

TEST(ParserTest, OtherStatements) {
  EXPECT_TRUE(std::holds_alternative<GenerateTableStmt>(
      ValueOrDie(ParseOne("GENERATE TABLE t ROWS 100 SEED 5;"))));
  EXPECT_TRUE(std::holds_alternative<InsertStmt>(
      ValueOrDie(ParseOne("INSERT INTO v ROWS 10;"))));
  EXPECT_TRUE(std::holds_alternative<RebuildStmt>(
      ValueOrDie(ParseOne("REBUILD v;"))));
  EXPECT_TRUE(std::holds_alternative<DropViewStmt>(
      ValueOrDie(ParseOne("DROP VIEW v;"))));
  EXPECT_TRUE(std::holds_alternative<ShowStmt>(
      ValueOrDie(ParseOne("SHOW VIEWS;"))));
}

TEST(ParserTest, Script) {
  auto statements = ValueOrDie(Parse(
      "GENERATE TABLE t ROWS 10; SHOW TABLES; -- comment\n SHOW VIEWS;"));
  EXPECT_EQ(statements.size(), 3u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseOne("CREATE VIEW x;").ok());  // missing MATERIALIZED...
  EXPECT_FALSE(ParseOne("SAMPLE FROM;").ok());
  EXPECT_FALSE(ParseOne("ESTIMATE MAX(x) FROM v;").ok());
  EXPECT_FALSE(ParseOne("GENERATE TABLE t ROWS -5;").ok());
  EXPECT_FALSE(ParseOne("ESTIMATE AVG(a) FROM v CONFIDENCE 2;").ok());
  EXPECT_FALSE(ParseOne("SHOW ME;").ok());
  EXPECT_FALSE(Parse("SHOW VIEWS SHOW TABLES;").ok());  // missing ';'
}

TEST(ParserTest, CountsMustBeExactIntegersUpToTwoToThe53) {
  // Each of these was cast to uint64_t before its range check: undefined
  // behaviour for values past 2^64.
  for (const char* sql :
       {"ESTIMATE AVG(a) FROM v SAMPLES 1e23;", "SAMPLE FROM v LIMIT 1e20;",
        "GENERATE TABLE t ROWS 1e30;", "GENERATE TABLE t ROWS 5 SEED 1e300;",
        "SAMPLE FROM v LIMIT 9007199254740994;",
        "SAMPLE FROM v LIMIT 2.5;"}) {
    auto stmt = ParseOne(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_TRUE(stmt.status().IsInvalidArgument()) << sql;
  }
  auto top = std::get<SampleStmt>(
      ValueOrDie(ParseOne("SAMPLE FROM v LIMIT 9007199254740992;")));
  EXPECT_EQ(top.limit, uint64_t{1} << 53);
}

// ---------------------------------------------------------------------------
// Executor end-to-end
// ---------------------------------------------------------------------------

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    executor_ = ValueOrDie(Executor::Open(env_.get()));
    MSV_ASSERT_OK(executor_->Run("GENERATE TABLE sale ROWS 20000 SEED 3;")
                      .status());
  }

  std::string Run(const std::string& sql) {
    return ValueOrDie(executor_->Run(sql));
  }

  std::unique_ptr<io::Env> env_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, CreateSampleEstimateRoundTrip) {
  std::string out = Run(
      "CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  EXPECT_NE(out.find("created materialized sample view v"), std::string::npos);

  out = Run("SAMPLE FROM v WHERE day BETWEEN 10000 AND 30000 LIMIT 4;");
  EXPECT_NE(out.find("(4 random samples)"), std::string::npos);

  out = Run(
      "ESTIMATE AVG(amount) FROM v WHERE day BETWEEN 10000 AND 30000 "
      "SAMPLES 800;");
  EXPECT_NE(out.find("AVG(amount) = "), std::string::npos);
  EXPECT_NE(out.find("+/-"), std::string::npos);
}

TEST_F(ExecutorTest, StatementHistogramCountsDisarmedStatements) {
  obs::SlowQueryLog& slow = obs::SlowQueryLog::Global();
  const uint64_t threshold = slow.threshold_us();
  slow.set_threshold_us(0);  // disarmed
  obs::LogHistogram* h =
      obs::MetricRegistry::Global().GetHistogram("query.statement_us");
  const uint64_t before = h->count();
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  EXPECT_EQ(h->count(), before + 1);
  slow.set_threshold_us(threshold);
}

TEST_F(ExecutorTest, SampledRowsSatisfyThePredicate) {
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  std::string out =
      Run("SAMPLE FROM v WHERE day BETWEEN 40000 AND 50000 LIMIT 50;");
  // Parse the day column of every data row and check bounds.
  std::istringstream lines(out);
  std::string line;
  std::getline(lines, line);  // header
  int rows = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("(", 0) == 0) break;  // trailer
    double day = std::stod(line.substr(0, line.find(" | ")));
    EXPECT_GE(day, 40000.0);
    EXPECT_LE(day, 50000.0);
    ++rows;
  }
  EXPECT_EQ(rows, 50);
}

TEST_F(ExecutorTest, TwoDimensionalView) {
  Run("CREATE MATERIALIZED SAMPLE VIEW v2 AS SELECT * FROM sale "
      "INDEX ON day, amount;");
  std::string out = Run(
      "SAMPLE FROM v2 WHERE day BETWEEN 0 AND 50000 "
      "AND amount BETWEEN 9000 AND 10000 LIMIT 10;");
  EXPECT_NE(out.find("(10 random samples)"), std::string::npos);
}

TEST_F(ExecutorTest, PredicateOnNonIndexedColumnRejected) {
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  auto result =
      executor_->Run("SAMPLE FROM v WHERE amount BETWEEN 0 AND 1;");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotSupported());
}

TEST_F(ExecutorTest, InsertAndRebuildFlow) {
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  std::string out = Run("INSERT INTO v ROWS 3000 SEED 9;");
  EXPECT_NE(out.find("REBUILD recommended"), std::string::npos);
  out = Run("REBUILD v;");
  EXPECT_NE(out.find("23000 rows"), std::string::npos);
}

TEST_F(ExecutorTest, CountEstimateTracksTruth) {
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  // 10% window over a uniform domain: expect ~2000 of 20000.
  std::string out =
      Run("ESTIMATE COUNT(*) FROM v WHERE day BETWEEN 10000 AND 20000;");
  size_t pos = out.find("~ ");
  ASSERT_NE(pos, std::string::npos);
  double count = std::stod(out.substr(pos + 2));
  EXPECT_NEAR(count, 2000.0, 300.0);
}

TEST_F(ExecutorTest, DrainedSumAfterInsertIsExact) {
  // The SUM/COUNT population is the sampler's own: base plus the
  // inserted delta. A drained SUM is then exactly AVG x |view|.
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  Run("INSERT INTO v ROWS 500;");
  auto value = [](const std::string& out, const std::string& label) {
    size_t pos = out.find(label);
    EXPECT_NE(pos, std::string::npos) << out;
    return pos == std::string::npos
               ? 0.0
               : std::stod(out.substr(pos + label.size()));
  };
  const double avg =
      value(Run("ESTIMATE AVG(amount) FROM v SAMPLES 100000;"),
            "AVG(amount) = ");
  const double sum =
      value(Run("ESTIMATE SUM(amount) FROM v SAMPLES 100000;"),
            "SUM(amount) = ");
  // AVG prints with 4 decimals; scaling that rounding by 20500 leaves
  // about one unit of slack.
  EXPECT_NEAR(sum, avg * 20500.0, 1.1);
  const std::string count = Run("ESTIMATE COUNT(*) FROM v;");
  EXPECT_EQ(value(count, "COUNT(*) ~ "), 20500.0);
  EXPECT_EQ(count.find("<="), std::string::npos) << count;
}

TEST_F(ExecutorTest, ExplainCountsDeltaMatches) {
  // EXPLAIN prints the population ESTIMATE scales by, delta included.
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  Run("INSERT INTO v ROWS 500;");
  auto count = [](const std::string& out, const std::string& label) {
    size_t pos = out.find(label);
    EXPECT_NE(pos, std::string::npos) << out;
    if (pos == std::string::npos) return uint64_t{0};
    pos = out.find_first_of("0123456789", pos);
    return static_cast<uint64_t>(std::stoull(out.substr(pos)));
  };
  const std::string estimate = Run("ESTIMATE COUNT(*) FROM v;");
  EXPECT_EQ(count(estimate, "COUNT(*) ~"), 20500u);
  const std::string explain = Run("EXPLAIN ESTIMATE COUNT(*) FROM v;");
  EXPECT_EQ(count(explain, "estimated matches"), 20500u) << explain;
}

TEST_F(ExecutorTest, GroupByEstimates) {
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  std::string out = Run(
      "ESTIMATE AVG(amount) FROM v WHERE day BETWEEN 0 AND 50000 "
      "GROUP BY supp SAMPLES 600;");
  EXPECT_NE(out.find("groups"), std::string::npos);
  EXPECT_NE(out.find("supp="), std::string::npos);
  out = Run(
      "ESTIMATE COUNT(*) FROM v WHERE day BETWEEN 0 AND 50000 "
      "GROUP BY supp SAMPLES 600;");
  EXPECT_NE(out.find("COUNT(*) = "), std::string::npos);
}

TEST_F(ExecutorTest, GroupByOnDoubleColumnRejected) {
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  auto result = executor_->Run(
      "ESTIMATE AVG(amount) FROM v GROUP BY amount;");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotSupported());
}

TEST_F(ExecutorTest, ErrorsForUnknownObjects) {
  EXPECT_TRUE(executor_->Run("SAMPLE FROM nosuch;").status().IsNotFound());
  EXPECT_TRUE(executor_->Run("DROP VIEW nosuch;").status().IsNotFound());
  EXPECT_TRUE(executor_
                  ->Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * "
                        "FROM nosuch INDEX ON day;")
                  .status()
                  .IsNotFound());
  // Non-double index column.
  EXPECT_TRUE(executor_
                  ->Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * "
                        "FROM sale INDEX ON cust;")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ExecutorTest, DuplicateViewRejected) {
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  EXPECT_TRUE(executor_
                  ->Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * "
                        "FROM sale INDEX ON day;")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ExecutorTest, CatalogPersistsAcrossSessions) {
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  executor_.reset();
  executor_ = ValueOrDie(Executor::Open(env_.get()));
  std::string out = Run("SHOW VIEWS;");
  EXPECT_NE(out.find("v ON sale INDEX ON day"), std::string::npos);
  out = Run("SAMPLE FROM v WHERE day BETWEEN 0 AND 1000 LIMIT 3;");
  EXPECT_NE(out.find("random sample"), std::string::npos);
}

TEST_F(ExecutorTest, BuildAndCompactionLeaveNoScratchFiles) {
  // The build's sorts run in place or straight into their output; none of
  // their scratch (the tagged file, the sort outputs, run files) outlives
  // CREATE or a compaction.
  auto expect_no_scratch = [&](const std::string& when) {
    for (const std::string& f : ValueOrDie(env_->ListFiles())) {
      for (std::string_view part : {".phase1", ".phase2", ".placed",
                                    ".p1run.", ".p2run.", ".tmp"}) {
        EXPECT_EQ(f.find(part), std::string::npos) << when << ": " << f;
      }
    }
  };
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  expect_no_scratch("after CREATE");
  Run("INSERT INTO v ROWS 3000 SEED 9;");
  Run("REBUILD v;");
  bool compacted = false;  // a generation after g1 exists
  for (const std::string& f : ValueOrDie(env_->ListFiles())) {
    compacted |= f.rfind("view.v.base.g", 0) == 0 && f != "view.v.base.g1";
  }
  EXPECT_TRUE(compacted);
  expect_no_scratch("after compaction");
}

TEST_F(ExecutorTest, DropRemovesFiles) {
  Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  EXPECT_TRUE(ValueOrDie(env_->FileExists("view.v.base.g1")));
  EXPECT_TRUE(ValueOrDie(env_->FileExists("view.v.manifest")));
  Run("DROP VIEW v;");
  // Every view file — base generations, runs, WALs, manifest — is gone.
  for (const std::string& f : ValueOrDie(env_->ListFiles())) {
    EXPECT_EQ(f.rfind("view.v.", 0), std::string::npos) << f;
  }
  std::string out = Run("SHOW VIEWS;");
  EXPECT_NE(out.find("(no views)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Answer rendering
// ---------------------------------------------------------------------------

std::string Printf4(double v) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

TEST(FormatTest, Fixed4MatchesPrintf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,     -0.0,    -12.5,    1e300,
                             -1e300,  1e308,   std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::denorm_min(),
                             inf,     -inf,    nan,      -nan,
                             1.03125, 1.09375, -2.5e-5,  0.00015,
                             123456.78905};
  for (double v : specials) EXPECT_EQ(Fixed4(v), Printf4(v)) << v;
  // Random bit patterns, and dyadic values whose fifth decimal is an
  // exact tie (printf rounds those to even on the binary value).
  Pcg64 rng(17);
  for (int i = 0; i < 200000; ++i) {
    double v;
    if (i % 2 == 0) {
      const uint64_t bits = rng.Next();
      std::memcpy(&v, &bits, sizeof(v));
    } else {
      v = static_cast<double>(static_cast<int64_t>(rng.Below(4000000)) -
                              2000000) /
          static_cast<double>(uint64_t{32} << rng.Below(8));
    }
    ASSERT_EQ(Fixed4(v), Printf4(v)) << i;
  }
  std::string appended = "x=";
  AppendFixed4(&appended, -0.5);
  EXPECT_EQ(appended, "x=-0.5000");
}

TEST(FormatTest, RowRendersHandBuiltRecords) {
  const TableSchema& schema = TableSchema::Sale();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    storage::SaleRecord rec;
    const char* want;
  };
  auto record = [](double day, double amount, uint64_t cust, uint64_t part,
                   uint64_t supp, uint64_t row_id) {
    storage::SaleRecord r;
    r.day = day;
    r.amount = amount;
    r.cust = cust;
    r.part = part;
    r.supp = supp;
    r.row_id = row_id;
    return r;
  };
  const Case cases[] = {
      {record(-12.34567, -0.0, 0, 1, 2, 3),
       "-12.3457 | -0.0000 | 0 | 1 | 2 | 3\n"},
      // Integers above 2^53 print exactly, not through a double.
      {record(1e300, 0.00005, (uint64_t{1} << 53) + 1,
              std::numeric_limits<uint64_t>::max(), 9007199254740993ULL,
              12345678901234567891ULL),
       nullptr},
      {record(std::numeric_limits<double>::quiet_NaN(), inf, 7, 8, 9, 10),
       "nan | inf | 7 | 8 | 9 | 10\n"},
      {record(-inf, -1.0 / 3.0, 0, 0, 0, 0),
       "-inf | -0.3333 | 0 | 0 | 0 | 0\n"},
  };
  for (const Case& c : cases) {
    char buf[storage::SaleRecord::kSize] = {};
    c.rec.EncodeTo(buf);
    std::string row;
    AppendRow(&row, schema, buf);
    if (c.want != nullptr) {
      EXPECT_EQ(row, c.want);
    } else {
      EXPECT_EQ(row, Printf4(1e300) + " | " + Printf4(0.00005) +
                         " | 9007199254740993 | 18446744073709551615"
                         " | 9007199254740993 | 12345678901234567891\n");
    }
  }
}

}  // namespace
}  // namespace msv::query
