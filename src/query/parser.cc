#include "query/parser.h"

#include <optional>

#include "query/lexer.h"
#include "util/numeric.h"

namespace msv::query {

namespace {

class ParserImpl {
 public:
  explicit ParserImpl(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Result<std::vector<Statement>> ParseScript() {
    std::vector<Statement> statements;
    while (!Peek().IsSymbol(';') && Peek().type != TokenType::kEnd) {
      MSV_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
      statements.push_back(std::move(stmt));
      // Consume one or more separators.
      if (!Peek().IsSymbol(';') && Peek().type != TokenType::kEnd) {
        return Error("expected ';' after statement");
      }
      while (Peek().IsSymbol(';')) Advance();
    }
    return statements;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " near offset " +
                                   std::to_string(Peek().position) +
                                   (Peek().text.empty()
                                        ? ""
                                        : " ('" + Peek().text + "')"));
  }

  Result<std::string> ExpectIdentifier(const std::string& what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected " + what);
    }
    return Advance().text;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!Peek().IsKeyword(kw)) return Error("expected " + kw);
    Advance();
    return Status::OK();
  }

  Status ExpectSymbol(char c) {
    if (!Peek().IsSymbol(c)) {
      return Error(std::string("expected '") + c + "'");
    }
    Advance();
    return Status::OK();
  }

  Result<double> ExpectNumber(const std::string& what) {
    if (Peek().type != TokenType::kNumber) return Error("expected " + what);
    return Advance().number;
  }

  Result<uint64_t> ExpectCount(const std::string& what) {
    MSV_ASSIGN_OR_RETURN(double v, ExpectNumber(what));
    std::optional<uint64_t> n = ExactUint(v);
    if (!n) {
      return Status::InvalidArgument(what +
                                     " must be an integer in [0, 2^53]");
    }
    return *n;
  }

  Result<std::vector<BetweenPredicate>> ParseWhere() {
    std::vector<BetweenPredicate> predicates;
    if (!Peek().IsKeyword("WHERE")) return predicates;
    Advance();
    for (;;) {
      BetweenPredicate pred;
      MSV_ASSIGN_OR_RETURN(pred.column, ExpectIdentifier("column name"));
      MSV_RETURN_IF_ERROR(ExpectKeyword("BETWEEN"));
      MSV_ASSIGN_OR_RETURN(pred.lo, ExpectNumber("lower bound"));
      MSV_RETURN_IF_ERROR(ExpectKeyword("AND"));
      MSV_ASSIGN_OR_RETURN(pred.hi, ExpectNumber("upper bound"));
      predicates.push_back(pred);
      if (!Peek().IsKeyword("AND")) break;
      Advance();
    }
    return predicates;
  }

  Result<Statement> ParseStatement() {
    if (Peek().IsKeyword("EXPLAIN")) return ParseExplain();
    if (Peek().IsKeyword("GENERATE")) return ParseGenerate();
    if (Peek().IsKeyword("CREATE")) return ParseCreate();
    if (Peek().IsKeyword("SAMPLE")) return ParseSample();
    if (Peek().IsKeyword("ESTIMATE")) return ParseEstimate();
    if (Peek().IsKeyword("INSERT")) return ParseInsert();
    if (Peek().IsKeyword("REBUILD")) return ParseRebuild();
    if (Peek().IsKeyword("DROP")) return ParseDrop();
    if (Peek().IsKeyword("SHOW")) return ParseShow();
    return Error("expected a statement");
  }

  Result<Statement> ParseExplain() {
    Advance();  // EXPLAIN
    ExplainStmt stmt;
    if (Peek().IsKeyword("ANALYZE")) {
      stmt.analyze = true;
      Advance();
    }
    if (Peek().IsKeyword("EXPLAIN")) return Error("cannot nest EXPLAIN");
    MSV_ASSIGN_OR_RETURN(Statement inner, ParseStatement());
    stmt.inner = std::make_shared<Statement>(std::move(inner));
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseGenerate() {
    Advance();  // GENERATE
    MSV_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    GenerateTableStmt stmt;
    MSV_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
    MSV_RETURN_IF_ERROR(ExpectKeyword("ROWS"));
    MSV_ASSIGN_OR_RETURN(stmt.rows, ExpectCount("row count"));
    if (Peek().IsKeyword("SEED")) {
      Advance();
      MSV_ASSIGN_OR_RETURN(stmt.seed, ExpectCount("seed"));
    }
    return Statement(stmt);
  }

  Result<Statement> ParseCreate() {
    Advance();  // CREATE
    MSV_RETURN_IF_ERROR(ExpectKeyword("MATERIALIZED"));
    MSV_RETURN_IF_ERROR(ExpectKeyword("SAMPLE"));
    MSV_RETURN_IF_ERROR(ExpectKeyword("VIEW"));
    CreateViewStmt stmt;
    MSV_ASSIGN_OR_RETURN(stmt.view, ExpectIdentifier("view name"));
    MSV_RETURN_IF_ERROR(ExpectKeyword("AS"));
    MSV_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    MSV_RETURN_IF_ERROR(ExpectSymbol('*'));
    MSV_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    MSV_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
    MSV_RETURN_IF_ERROR(ExpectKeyword("INDEX"));
    MSV_RETURN_IF_ERROR(ExpectKeyword("ON"));
    for (;;) {
      MSV_ASSIGN_OR_RETURN(std::string col,
                           ExpectIdentifier("index column"));
      stmt.index_columns.push_back(col);
      if (!Peek().IsSymbol(',')) break;
      Advance();
    }
    return Statement(stmt);
  }

  Result<Statement> ParseSample() {
    Advance();  // SAMPLE
    MSV_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    SampleStmt stmt;
    MSV_ASSIGN_OR_RETURN(stmt.view, ExpectIdentifier("view name"));
    MSV_ASSIGN_OR_RETURN(stmt.predicates, ParseWhere());
    if (Peek().IsKeyword("LIMIT")) {
      Advance();
      MSV_ASSIGN_OR_RETURN(stmt.limit, ExpectCount("limit"));
    }
    return Statement(stmt);
  }

  Result<Statement> ParseEstimate() {
    Advance();  // ESTIMATE
    EstimateStmt stmt;
    if (Peek().IsKeyword("AVG")) {
      stmt.agg = EstimateStmt::Agg::kAvg;
    } else if (Peek().IsKeyword("SUM")) {
      stmt.agg = EstimateStmt::Agg::kSum;
    } else if (Peek().IsKeyword("COUNT")) {
      stmt.agg = EstimateStmt::Agg::kCount;
    } else {
      return Error("expected AVG, SUM or COUNT");
    }
    Advance();
    MSV_RETURN_IF_ERROR(ExpectSymbol('('));
    if (stmt.agg == EstimateStmt::Agg::kCount) {
      MSV_RETURN_IF_ERROR(ExpectSymbol('*'));
    } else {
      MSV_ASSIGN_OR_RETURN(stmt.column, ExpectIdentifier("column"));
    }
    MSV_RETURN_IF_ERROR(ExpectSymbol(')'));
    MSV_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    MSV_ASSIGN_OR_RETURN(stmt.view, ExpectIdentifier("view name"));
    MSV_ASSIGN_OR_RETURN(stmt.predicates, ParseWhere());
    if (Peek().IsKeyword("GROUP")) {
      Advance();
      MSV_RETURN_IF_ERROR(ExpectKeyword("BY"));
      MSV_ASSIGN_OR_RETURN(stmt.group_by, ExpectIdentifier("group column"));
    }
    if (Peek().IsKeyword("SAMPLES")) {
      Advance();
      MSV_ASSIGN_OR_RETURN(stmt.samples, ExpectCount("sample count"));
      stmt.samples_set = true;
    }
    if (Peek().IsKeyword("CONFIDENCE")) {
      Advance();
      MSV_ASSIGN_OR_RETURN(stmt.confidence, ExpectNumber("confidence"));
      if (stmt.confidence <= 0 || stmt.confidence >= 1) {
        return Status::InvalidArgument("confidence must be in (0, 1)");
      }
    }
    // WITHIN <pct>% (error bound) and/or WITHIN <t> MS (deadline); both
    // may appear, in either order — whichever fires first stops sampling.
    while (Peek().IsKeyword("WITHIN")) {
      Advance();
      MSV_ASSIGN_OR_RETURN(double bound, ExpectNumber("WITHIN bound"));
      if (Peek().IsSymbol('%')) {
        Advance();
        if (bound <= 0 || bound >= 100) {
          return Status::InvalidArgument(
              "WITHIN error bound must be in (0, 100) percent");
        }
        if (stmt.within_pct != 0) {
          return Error("duplicate WITHIN % clause");
        }
        stmt.within_pct = bound;
      } else if (Peek().IsKeyword("MS")) {
        Advance();
        // At most 2^53 ms, so the executor's µs deadline cannot wrap.
        std::optional<uint64_t> ms = ExactUint(bound);
        if (!ms || *ms == 0) {
          return Status::InvalidArgument(
              "WITHIN deadline must be an integer of milliseconds in "
              "[1, 2^53]");
        }
        if (stmt.within_ms != 0) {
          return Error("duplicate WITHIN ... MS clause");
        }
        stmt.within_ms = *ms;
      } else {
        return Error("expected '%' or MS after WITHIN bound");
      }
    }
    return Statement(stmt);
  }

  Result<Statement> ParseInsert() {
    Advance();  // INSERT
    MSV_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    InsertStmt stmt;
    MSV_ASSIGN_OR_RETURN(stmt.view, ExpectIdentifier("view name"));
    MSV_RETURN_IF_ERROR(ExpectKeyword("ROWS"));
    MSV_ASSIGN_OR_RETURN(stmt.rows, ExpectCount("row count"));
    if (Peek().IsKeyword("SEED")) {
      Advance();
      MSV_ASSIGN_OR_RETURN(stmt.seed, ExpectCount("seed"));
    }
    return Statement(stmt);
  }

  Result<Statement> ParseRebuild() {
    Advance();  // REBUILD
    RebuildStmt stmt;
    MSV_ASSIGN_OR_RETURN(stmt.view, ExpectIdentifier("view name"));
    return Statement(stmt);
  }

  Result<Statement> ParseDrop() {
    Advance();  // DROP
    MSV_RETURN_IF_ERROR(ExpectKeyword("VIEW"));
    DropViewStmt stmt;
    MSV_ASSIGN_OR_RETURN(stmt.view, ExpectIdentifier("view name"));
    return Statement(stmt);
  }

  Result<Statement> ParseShow() {
    Advance();  // SHOW
    ShowStmt stmt;
    if (Peek().IsKeyword("VIEWS")) {
      stmt.views = true;
    } else if (Peek().IsKeyword("TABLES")) {
      stmt.views = false;
    } else {
      return Error("expected VIEWS or TABLES");
    }
    Advance();
    return Statement(stmt);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::vector<Statement>> Parse(const std::string& input) {
  MSV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  ParserImpl parser(std::move(tokens));
  return parser.ParseScript();
}

Result<Statement> ParseOne(const std::string& input) {
  MSV_ASSIGN_OR_RETURN(std::vector<Statement> statements, Parse(input));
  if (statements.size() != 1) {
    return Status::InvalidArgument("expected exactly one statement, got " +
                                   std::to_string(statements.size()));
  }
  return std::move(statements[0]);
}

}  // namespace msv::query
