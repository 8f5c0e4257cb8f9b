// Unit tests for the observability layer: metrics registry (counters,
// gauges, log-linear histograms), the span tracer (nesting,
// counter deltas, golden tree/JSON output), and the JSON round-trip
// contract the exporters rely on.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/random.h"

namespace msv::obs {
namespace {

using msv::testing::ValueOrDie;

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("c");
  EXPECT_EQ(c->Value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
  // Same name -> same counter.
  EXPECT_EQ(reg.GetCounter("c"), c);

  Gauge* g = reg.GetGauge("g");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
}

TEST(MetricsTest, LabeledSeriesName) {
  EXPECT_EQ(MetricRegistry::Labeled("io.disk.reads", {{"dev", "0"}}),
            "io.disk.reads{dev=0}");
  EXPECT_EQ(MetricRegistry::Labeled("x", {{"a", "1"}, {"b", "2"}}),
            "x{a=1,b=2}");
  EXPECT_EQ(MetricRegistry::Labeled("bare", {}), "bare");
}

TEST(MetricsTest, LogHistogramMeanAndQuantiles) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(7);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 700u);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0);
  // All mass sits in the cell containing 7; interpolation stays inside.
  EXPECT_GE(h.Quantile(0.5), 7.0);
  EXPECT_LE(h.Quantile(0.5), 8.0);

  LogHistogram u;
  for (uint64_t v = 1; v <= 1000; ++v) u.Record(v);
  // Log-linear cells are <= 25% wide, so interpolated percentiles land
  // near the exact order statistics.
  EXPECT_NEAR(u.Quantile(0.50), 500.0, 150.0);
  EXPECT_NEAR(u.Quantile(0.95), 950.0, 250.0);
  EXPECT_NEAR(u.Quantile(0.99), 990.0, 260.0);
  EXPECT_GT(u.Quantile(0.99), u.Quantile(0.50));
}

TEST(MetricsTest, ConcurrencySmoke) {
  // Mixed registration + increments from many threads; run under the
  // tsan preset this is the registry's data-race smoke test.
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        reg.GetCounter("shared")->Add();
        reg.GetCounter("own." + std::to_string(t))->Add();
        reg.GetHistogram("lat")->Record(static_cast<uint64_t>(i % 97));
        if (i % 256 == 0) reg.Snapshot();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.GetCounter("shared")->Value(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.GetHistogram("lat")->count(),
            static_cast<uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("own." + std::to_string(t))->Value(),
              static_cast<uint64_t>(kIters));
  }
}

// ---------------------------------------------------------------------------
// JSON round-trip (the exporter contract)
// ---------------------------------------------------------------------------

TEST(JsonTest, RoundTripNestedDocument) {
  Json doc = Json::Object();
  doc["name"] = "bench";
  doc["n"] = uint64_t{12345};
  doc["ratio"] = 0.0025;
  doc["ok"] = true;
  doc["nothing"] = Json();
  Json arr = Json::Array();
  arr.Append(1);
  arr.Append("two");
  arr.Append(Json::Object());
  doc["arr"] = std::move(arr);

  for (int indent : {0, 2}) {
    Json back = ValueOrDie(Json::Parse(doc.Dump(indent)));
    EXPECT_EQ(back, doc) << "indent=" << indent;
  }
}

TEST(JsonTest, NestingPastMaxDepthIsAnErrorNotACrash) {
  auto nested = [](int levels) {
    return std::string(static_cast<size_t>(levels), '[') +
           std::string(static_cast<size_t>(levels), ']');
  };
  MSV_EXPECT_OK(Json::Parse(nested(Json::kMaxDepth)).status());
  auto over = Json::Parse(nested(Json::kMaxDepth + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsInvalidArgument()) << over.status().ToString();
  // One recursion per level would overflow the stack long before here.
  auto hostile = Json::Parse(std::string(100000, '['));
  ASSERT_FALSE(hostile.ok());
  EXPECT_TRUE(hostile.status().IsInvalidArgument());
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_TRUE(Json::Parse(objects).status().IsInvalidArgument());
}

TEST(JsonTest, MetricsSnapshotRoundTrips) {
  MetricRegistry reg;
  reg.GetCounter("io.disk.reads")->Add(17);
  reg.GetGauge("pool.fill")->Set(0.75);
  reg.GetHistogram("io.disk.access_us")->Record(640);
  reg.GetCounter("io.disk.reads")->Add(3);

  Json j = reg.Snapshot();
  Json back = ValueOrDie(Json::Parse(j.Dump(2)));
  EXPECT_EQ(back, j);
  const Json* counters = back.Find("counters");
  ASSERT_NE(counters, nullptr);
  const Json* reads = counters->Find("io.disk.reads");
  ASSERT_NE(reads, nullptr);
  EXPECT_DOUBLE_EQ(reads->Find("total")->AsNumber(), 20.0);
  // Counters are totals only: one field per counter, and the snapshot
  // is exactly its three metric families.
  EXPECT_EQ(reads->members().size(), 1u);
  EXPECT_EQ(back.members().size(), 3u);
  // A histogram carries its non-empty cells as [le, n] pairs: 640 lies
  // in [640, 768), the second quarter of the [512, 1024) octave.
  const Json* access = back.Find("histograms")->Find("io.disk.access_us");
  ASSERT_NE(access, nullptr);
  EXPECT_DOUBLE_EQ(access->Find("count")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(access->Find("sum")->AsNumber(), 640.0);
  EXPECT_DOUBLE_EQ(access->Find("overflow")->AsNumber(), 0.0);
  const Json* cells = access->Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->size(), 1u);
  EXPECT_DOUBLE_EQ(cells->at(0).at(0).AsNumber(), 768.0);
  EXPECT_DOUBLE_EQ(cells->at(0).at(1).AsNumber(), 1.0);
}

TEST(JsonTest, BenchRecordShapeRoundTrips) {
  // Mirrors bench::WriteBenchJson: {bench, numbers, metrics}.
  MetricRegistry reg;
  reg.GetCounter("ace.leaf_reads")->Add(5);
  Json record = Json::Object();
  record["bench"] = "fig11";
  Json numbers = Json::Object();
  numbers["records"] = uint64_t{100000};
  numbers["scan_ms"] = 205.6;
  record["numbers"] = std::move(numbers);
  record["metrics"] = reg.Snapshot();

  Json back = ValueOrDie(Json::Parse(record.Dump(2)));
  EXPECT_EQ(back, record);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TraceTest, SpanNestingGoldenTree) {
  // Private registry so counter deltas are fully deterministic.
  MetricRegistry reg;
  Tracer tracer(&reg);
  {
    Span root = tracer.StartSpan("query");
    root.AddAttr("view", "v");
    reg.GetCounter("io.leaf_reads")->Add(3);
    {
      Span child = tracer.StartSpan("sample");
      child.AddMetric("levels", 4);
      reg.GetCounter("io.leaf_reads")->Add(2);
      tracer.AddEvent("estimate", {{"samples", 100}, {"avg", 1.5}});
    }
  }
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(tracer.dropped_spans(), 0u);
  // Child sees only the increments while it was open; the root sees all
  // five (the counter was registered inside the root span, baseline 0).
  EXPECT_EQ(tracer.ToTree(/*include_wall=*/false),
            "query view=v [io.leaf_reads=5]\n"
            "  sample [levels=4 io.leaf_reads=2]\n"
            "    * estimate samples=100 avg=1.5\n");
}

TEST(TraceTest, EndingParentClosesChildren) {
  MetricRegistry reg;
  Tracer tracer(&reg);
  Span parent = tracer.StartSpan("parent");
  Span child = tracer.StartSpan("child");
  parent.End();  // force-closes the child LIFO
  EXPECT_EQ(tracer.open_spans(), 0u);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].name, "parent");
  EXPECT_EQ(tracer.spans()[0].parent, 0u);
  EXPECT_EQ(tracer.spans()[1].name, "child");
  EXPECT_EQ(tracer.spans()[1].parent, tracer.spans()[0].id);
  child.End();  // already closed; must be a harmless no-op
  EXPECT_EQ(tracer.spans().size(), 2u);
}

TEST(TraceTest, JsonExportRoundTrips) {
  MetricRegistry reg;
  Tracer tracer(&reg);
  {
    Span root = tracer.StartSpan("query");
    root.AddAttr("kind", "estimate");
    reg.GetCounter("samples")->Add(10);
    tracer.AddEvent("estimate", {{"avg", 3.25}});
  }
  Json j = tracer.ToJson();
  Json back = ValueOrDie(Json::Parse(j.Dump()));
  EXPECT_EQ(back, j);
  const Json* spans = back.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->size(), 1u);
  EXPECT_EQ(spans->at(0).Find("name")->AsString(), "query");
  EXPECT_DOUBLE_EQ(
      spans->at(0).Find("metrics")->Find("samples")->AsNumber(), 10.0);
}

TEST(TraceTest, ScopedTracerInstallsAndRestores) {
  EXPECT_EQ(Tracer::Active(), nullptr);
  MetricRegistry reg;
  Tracer tracer(&reg);
  {
    ScopedTracer scoped(&tracer);
    EXPECT_EQ(Tracer::Active(), &tracer);
    Span s = StartTraceSpan("via-free-function");
    EXPECT_TRUE(s.active());
  }
  EXPECT_EQ(Tracer::Active(), nullptr);
  // Without an active tracer the free functions are inert.
  Span s = StartTraceSpan("dropped");
  EXPECT_FALSE(s.active());
}

TEST(TraceTest, MaxSpansDrops) {
  MetricRegistry reg;
  Tracer tracer(&reg);
  for (size_t i = 0; i < Tracer::kMaxSpans; ++i) {
    Span s = tracer.StartSpan("s");
    ASSERT_TRUE(s.active()) << i;
  }
  Span over = tracer.StartSpan("over");
  EXPECT_FALSE(over.active());
  EXPECT_EQ(tracer.spans().size(), Tracer::kMaxSpans);
  EXPECT_EQ(tracer.dropped_spans(), 1u);
}

TEST(TraceTest, ExportTraceIfRequestedWritesJsonLine) {
  MetricRegistry reg;
  Tracer tracer(&reg);
  { Span s = tracer.StartSpan("exported"); }

  const std::string path =
      ::testing::TempDir() + "/msv_obs_test_trace.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("MSV_TRACE", path.c_str(), 1), 0);
  EXPECT_TRUE(ExportTraceIfRequested(tracer));
  unsetenv("MSV_TRACE");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  Json parsed = ValueOrDie(Json::Parse(line));
  ASSERT_NE(parsed.Find("spans"), nullptr);
  EXPECT_EQ(parsed.Find("spans")->at(0).Find("name")->AsString(), "exported");
  std::remove(path.c_str());
}

TEST(TraceTest, UnsetEnvVarExportsNothing) {
  MetricRegistry reg;
  Tracer tracer(&reg);
  unsetenv("MSV_TRACE");
  EXPECT_FALSE(ExportTraceIfRequested(tracer));
}

// ---------------------------------------------------------------------------
// LogHistogram::Quantile edge cases (pinned: exporters and msv_top rely
// on these exact boundary conventions)
// ---------------------------------------------------------------------------

TEST(MetricsTest, QuantileOfEmptyHistogramIsZero) {
  LogHistogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(MetricsTest, QuantileZeroReturnsLowestEdge) {
  LogHistogram h;
  h.Record(100);
  h.Record(1000);
  // q=0 asks for "the value below everything": the grid's lowest edge.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), LogHistogram::BucketEdges().front());
}

TEST(MetricsTest, QuantileOneReturnsUpperEdgeOfMaxCell) {
  LogHistogram h;
  h.Record(100);
  const auto& edges = LogHistogram::BucketEdges();
  double q1 = h.Quantile(1.0);
  // q=1 lands on the upper edge of the cell holding the max sample —
  // within one cell (<= 25% relative width) of the true max.
  EXPECT_GE(q1, 100.0);
  EXPECT_LE(q1, 100.0 * 1.25);
  EXPECT_LT(q1, edges.back());
}

TEST(MetricsTest, SingleSampleQuantilesStayInItsCell) {
  LogHistogram h;
  h.Record(100);
  // 100 lies in octave [64, 128) split into 4 cells: [96, 112).
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    double v = h.Quantile(q);
    EXPECT_GE(v, 96.0) << "q=" << q;
    EXPECT_LE(v, 112.0) << "q=" << q;
  }
}

TEST(MetricsTest, ValuesBeyondMaxOctaveSaturateAtTopEdge) {
  LogHistogram h;
  const auto& edges = LogHistogram::BucketEdges();
  // 2^41 is past the 2^40 grid top: counted, summed, but bucketed as
  // overflow, so every quantile saturates at the top edge.
  const uint64_t huge = 1ull << 41;
  h.Record(huge);
  h.Record(huge);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 2 * huge);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), edges.back());
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), edges.back());
  std::vector<uint64_t> cells;
  uint64_t overflow = 0;
  h.SnapshotCells(&cells, &overflow);
  EXPECT_EQ(overflow, 2u);
  EXPECT_EQ(cells.size(), edges.size() - 1);
  for (uint64_t c : cells) EXPECT_EQ(c, 0u);
}

// ---------------------------------------------------------------------------
// JSON \u escape decoding (BMP, surrogate pairs, error cases)
// ---------------------------------------------------------------------------

TEST(JsonTest, UnicodeEscapeDecodesBasicMultilingualPlane) {
  // One-, two- and three-byte UTF-8 targets: A, U+00E9, U+20AC.
  Json j = ValueOrDie(Json::Parse(R"("A\u00e9\u20AC")"));
  EXPECT_EQ(j.AsString(), "A\xc3\xa9\xe2\x82\xac");
}

TEST(JsonTest, UnicodeEscapeDecodesSurrogatePairs) {
  // U+1F600 (grinning face), a supplementary-plane code point that
  // needs a \ud83d\ude00 surrogate pair and a 4-byte UTF-8 encoding.
  Json j = ValueOrDie(Json::Parse(R"("\ud83d\ude00")"));
  EXPECT_EQ(j.AsString(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, UnicodeEscapeRoundTripsThroughDump) {
  // \u-escaped input decodes to UTF-8 bytes, dumps as those raw bytes
  // (still valid JSON), and reparses equal — the round-trip contract.
  Json original =
      ValueOrDie(Json::Parse(R"({"k":"caf\u00e9 \uD83D\uDE80"})"));
  Json reparsed = ValueOrDie(Json::Parse(original.Dump()));
  EXPECT_EQ(original, reparsed);
  EXPECT_EQ(reparsed.Find("k")->AsString(), "caf\xc3\xa9 \xf0\x9f\x9a\x80");
}

TEST(JsonTest, UnicodeEscapeRejectsLoneAndMalformedSurrogates) {
  EXPECT_FALSE(Json::Parse(R"("\ude00")").ok());         // lone low
  EXPECT_FALSE(Json::Parse(R"("\ud83d")").ok());         // lone high at end
  EXPECT_FALSE(Json::Parse(R"("\ud83dx")").ok());        // high + literal
  EXPECT_FALSE(Json::Parse(R"("\ud83dA")").ok());   // high + non-low
  EXPECT_FALSE(Json::Parse(R"("\ud83d\ud83d")").ok());   // high + high
}

TEST(JsonTest, UnicodeEscapeRejectsBadHex) {
  EXPECT_FALSE(Json::Parse(R"("\u12")").ok());      // too short
  EXPECT_FALSE(Json::Parse(R"("\u12g4")").ok());    // non-hex digit
  EXPECT_FALSE(Json::Parse(R"("\u")").ok());        // nothing at all
}

TEST(JsonTest, ControlCharactersEscapeAndRoundTrip) {
  Json j("line1\nline2\ttab\x01");
  std::string dumped = j.Dump();
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
  EXPECT_NE(dumped.find("\\t"), std::string::npos);
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
  EXPECT_EQ(ValueOrDie(Json::Parse(dumped)).AsString(), j.AsString());
}

// ---------------------------------------------------------------------------
// JSON string runs: the encoder and decoder against per-character
// reference copies
// ---------------------------------------------------------------------------

/// The per-character string encoder the library used before it copied
/// runs: the reference its output must equal byte for byte.
std::string ReferenceEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// The per-character decoder of a document holding one JSON string, with
/// the library's error texts and offsets: the reference Json::Parse must
/// agree with on every string document, accepted or rejected.
class ReferenceStringParser {
 public:
  explicit ReferenceStringParser(const std::string& text) : text_(text) {}

  Result<std::string> ParseDocument() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("not a string document");
    }
    MSV_ASSIGN_OR_RETURN(std::string s, ParseString());
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("json: trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return s;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  bool ParseHex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) return false;
    unsigned v = 0;
    for (size_t i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      unsigned digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<unsigned>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<unsigned>(c - 'A') + 10;
      } else {
        return false;
      }
      v = (v << 4) | digit;
    }
    pos_ += 4;
    *code = v;
    return true;
  }

  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xc0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xe0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  Result<std::string> ParseString() {
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("bad escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(&code)) return Error("bad \\u escape");
          if (code >= 0xdc00 && code <= 0xdfff) {
            return Error("lone low surrogate");
          }
          if (code >= 0xd800 && code <= 0xdbff) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired high surrogate");
            }
            pos_ += 2;
            unsigned low = 0;
            if (!ParseHex4(&low)) return Error("bad \\u escape");
            if (low < 0xdc00 || low > 0xdfff) {
              return Error("unpaired high surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          }
          AppendUtf8(&out, code);
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;
    return out;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// Dump of `s` alone and as an object's key and value equals the
/// reference encoding, and parsing it gives `s` back exactly as the
/// reference decoder does.
void ExpectStringMatchesReference(const std::string& s) {
  const std::string want = ReferenceEscape(s);
  EXPECT_EQ(Json(s).Dump(), want);
  Json obj = Json::Object();
  obj[s] = Json(s);
  EXPECT_EQ(obj.Dump(), "{" + want + ":" + want + "}");
  Result<Json> parsed = Json::Parse(want);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().AsString(), s);
  EXPECT_EQ(ValueOrDie(ReferenceStringParser(want).ParseDocument()), s);
}

/// Json::Parse of a string document agrees with the reference decoder:
/// the same string, or the same error text at the same offset.
void ExpectParseMatchesReference(const std::string& text) {
  Result<Json> got = Json::Parse(text);
  Result<std::string> want = ReferenceStringParser(text).ParseDocument();
  ASSERT_EQ(got.ok(), want.ok()) << text;
  if (want.ok()) {
    EXPECT_EQ(got.value().AsString(), want.value()) << text;
  } else {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << text;
  }
}

TEST(JsonStringRunsTest, EscapesAtTheEdgesAndBackToBack) {
  for (const std::string& s :
       {std::string(), std::string("plain"), std::string("\"leading"),
        std::string("trailing\\"), std::string("\n\t\r\"\\"),
        std::string("a\"\"b\\\\c\n\nd"), std::string("\x01mid\x1f"),
        std::string("\"\""), std::string("caf\xc3\xa9 \xf0\x9f\x9a\x80")}) {
    SCOPED_TRACE(ReferenceEscape(s));
    ExpectStringMatchesReference(s);
  }
}

TEST(JsonStringRunsTest, EveryControlCharacter) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) {
    const std::string one(1, static_cast<char>(c));
    SCOPED_TRACE(c);
    ExpectStringMatchesReference(one);
    ExpectStringMatchesReference("x" + one + "y");
    all += one;
  }
  ExpectStringMatchesReference(all);
  ExpectStringMatchesReference(all + all);
}

TEST(JsonStringRunsTest, LongStringWithoutEscapes) {
  std::string s(64 << 10, ' ');
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<char>('0' + i % 75);  // '0'..'z', no quote or '\'
    if (s[i] == '\\') s[i] = '_';
  }
  ExpectStringMatchesReference(s);
  // And with one escape at each end.
  ExpectStringMatchesReference("\n" + s + "\"");
}

TEST(JsonStringRunsTest, RandomStringsMatchReference) {
  // Bytes drawn mostly from the characters that need escapes, so runs
  // are short and every boundary case recurs.
  const char alphabet[] = {'a', 'b', '"', '\\', '\n', '\t', '\r', '\x01',
                           '\x1f', '/', 'u', '\x7f', '\xc3', '\xa9'};
  Pcg64 rng(29);
  for (int i = 0; i < 2000; ++i) {
    std::string s(rng.Below(24), '\0');
    for (char& c : s) c = alphabet[rng.Below(sizeof(alphabet))];
    SCOPED_TRACE(ReferenceEscape(s));
    ExpectStringMatchesReference(s);
  }
}

TEST(JsonStringRunsTest, DecoderEscapesAndErrorsMatchReference) {
  for (const std::string& text :
       {std::string("\"\\/A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\""),
        std::string(R"("\"x\"")"), std::string(R"("a\\")"),
        // Unterminated, and a backslash as the last byte of input.
        std::string("\"abc"), std::string("\""), std::string("\"abc\\"),
        std::string("\"\\"), std::string("\"ab\\n"),
        // Bad escapes, and bytes after the closing quote.
        std::string(R"("\x")"), std::string(R"("\u12")"),
        std::string(R"("\ude00")"), std::string(R"("\ud83dx")"),
        std::string(R"("ok"x)")}) {
    ExpectParseMatchesReference(text);
  }
  EXPECT_EQ(Json::Parse("\"abc").status().ToString(),
            Status::InvalidArgument("json: unterminated string at offset 4")
                .ToString());
  EXPECT_EQ(
      Json::Parse("\"abc\\").status().ToString(),
      Status::InvalidArgument("json: bad escape at offset 5").ToString());
}

}  // namespace
}  // namespace msv::obs
