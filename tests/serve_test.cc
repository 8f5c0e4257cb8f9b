// Protocol robustness for the MSVQL TCP front end.
//
// The battery attacks the server the way misbehaving clients do —
// malformed JSON, oversized frames, disconnects mid-frame, slow-loris
// stalls, request bursts past the admission queue — and checks that
// every failure is either a *typed* error response (overload / parse /
// exec / protocol) or a clean drop, while healthy sessions on the same
// server keep being served. The churn test exists chiefly for the TSan
// build: it races connection setup/teardown against in-flight work to
// exercise the shared_ptr fd-lifetime design.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "io/env.h"
#include "query/executor.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "test_util.h"

namespace msv {
namespace {

using msv::testing::ValueOrDie;
using serve::Client;
using serve::EncodeFrame;
using serve::FrameDecoder;
using serve::kMaxFrameBytes;
using serve::ParseRequest;
using serve::Server;
using serve::ServerOptions;

/// A bare frame header declaring a `length`-byte payload.
std::string FrameHeader(size_t length) {
  return {static_cast<char>((length >> 24) & 0xff),
          static_cast<char>((length >> 16) & 0xff),
          static_cast<char>((length >> 8) & 0xff),
          static_cast<char>(length & 0xff)};
}

// ---------------------------------------------------------------------------
// FrameDecoder: incremental reassembly.

TEST(FrameDecoderTest, ReassemblesOneBytePerFeed) {
  const std::string frame = EncodeFrame("{\"statement\":\"SHOW VIEWS;\"}");
  FrameDecoder decoder;
  std::string payload;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Feed(frame.data() + i, 1);
    EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Outcome::kNeedMore);
    EXPECT_TRUE(decoder.mid_frame());
  }
  decoder.Feed(frame.data() + frame.size() - 1, 1);
  ASSERT_EQ(decoder.Next(&payload), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(payload, "{\"statement\":\"SHOW VIEWS;\"}");
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FrameDecoderTest, DrainsMultipleFramesFromOneFeed) {
  const std::string wire = EncodeFrame("first") + EncodeFrame("second");
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::string payload;
  ASSERT_EQ(decoder.Next(&payload), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(payload, "first");
  ASSERT_EQ(decoder.Next(&payload), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(payload, "second");
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Outcome::kNeedMore);
}

TEST(FrameDecoderTest, EmptyPayloadRoundTrips) {
  FrameDecoder decoder;
  const std::string frame = EncodeFrame("");
  decoder.Feed(frame.data(), frame.size());
  std::string payload = "sentinel";
  ASSERT_EQ(decoder.Next(&payload), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(payload, "");
}

TEST(FrameDecoderTest, OversizedDeclaredLengthIsRejectedFromHeaderAlone) {
  FrameDecoder decoder;
  // Header one byte past the ceiling — no body bytes needed to convict.
  const std::string header = FrameHeader(kMaxFrameBytes + 1);
  decoder.Feed(header.data(), header.size());
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Outcome::kTooLarge);
}

TEST(FrameDecoderTest, LengthAtCeilingWaitsForBody) {
  FrameDecoder decoder;
  const std::string header = FrameHeader(kMaxFrameBytes);
  decoder.Feed(header.data(), header.size());
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Outcome::kNeedMore);
}

// ---------------------------------------------------------------------------
// ParseRequest: protocol JSON validation.

TEST(ParseRequestTest, AcceptsStatementWithAndWithoutId) {
  auto with_id = ValueOrDie(ParseRequest("{\"id\": 7, \"statement\": \"X;\"}"));
  EXPECT_TRUE(with_id.has_id);
  EXPECT_EQ(with_id.id, 7u);
  EXPECT_EQ(with_id.statement, "X;");
  auto without_id = ValueOrDie(ParseRequest("{\"statement\": \"Y;\"}"));
  EXPECT_FALSE(without_id.has_id);
  EXPECT_EQ(without_id.statement, "Y;");
}

TEST(ParseRequestTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("not json at all").ok());
  EXPECT_FALSE(ParseRequest("[1, 2, 3]").ok());        // not an object
  EXPECT_FALSE(ParseRequest("{\"id\": 3}").ok());      // statement missing
  EXPECT_FALSE(ParseRequest("{\"statement\": 9}").ok());  // wrong type
}

TEST(ParseRequestTest, IdMustBeAnExactNonNegativeInteger) {
  for (const char* id : {"-1", "1e300", "1.5", "9007199254740994"}) {
    auto request = ParseRequest(std::string("{\"id\": ") + id +
                                ", \"statement\": \"X;\"}");
    ASSERT_FALSE(request.ok()) << id;
    EXPECT_TRUE(request.status().IsInvalidArgument()) << id;
  }
  // 2^53, the largest id every JSON client represents exactly.
  auto top = ValueOrDie(
      ParseRequest("{\"id\": 9007199254740992, \"statement\": \"X;\"}"));
  EXPECT_EQ(top.id, uint64_t{1} << 53);
  EXPECT_EQ(ValueOrDie(ParseRequest("{\"id\": 0, \"statement\": \"X;\"}")).id,
            0u);
}

// ---------------------------------------------------------------------------
// Live-server battery.

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    executor_ = ValueOrDie(query::Executor::Open(env_.get()));
    ASSERT_TRUE(executor_
                    ->Run("GENERATE TABLE sale ROWS 5000 SEED 7; CREATE "
                          "MATERIALIZED SAMPLE VIEW sv AS SELECT * FROM sale "
                          "INDEX ON day;")
                    .ok());
  }

  void StartServer(ServerOptions options) {
    options.port = 0;
    server_ = std::make_unique<Server>(executor_.get(), options);
    MSV_ASSERT_OK(server_->Start());
  }

  std::unique_ptr<Client> Connect() {
    return ValueOrDie(Client::Connect("127.0.0.1", server_->port()));
  }

  static constexpr const char* kGoodQuery =
      "ESTIMATE AVG(amount) FROM sv WHERE day BETWEEN 1000 AND 90000 "
      "SAMPLES 64;";

  std::unique_ptr<io::Env> env_;
  std::unique_ptr<query::Executor> executor_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, GoodQueryRoundTripsWithEstimateBlock) {
  StartServer(ServerOptions{});
  auto client = Connect();
  obs::Json doc = ValueOrDie(client->Call(kGoodQuery));
  ASSERT_NE(doc.Find("ok"), nullptr);
  EXPECT_TRUE(doc.Find("ok")->AsBool());
  ASSERT_NE(doc.Find("output"), nullptr);
  EXPECT_NE(doc.Find("output")->AsString().find("AVG(amount)"),
            std::string::npos);
  const obs::Json* estimate = doc.Find("estimate");
  ASSERT_NE(estimate, nullptr);
  EXPECT_EQ(estimate->Find("samples")->AsNumber(), 64.0);
  EXPECT_GT(estimate->Find("half_width")->AsNumber(), 0.0);
  EXPECT_FALSE(estimate->Find("is_partial")->AsBool());
}

TEST_F(ServeTest, MalformedJsonGetsProtocolErrorAndConnectionSurvives) {
  StartServer(ServerOptions{});
  auto client = Connect();
  const std::string frame = EncodeFrame("{definitely not json");
  MSV_ASSERT_OK(client->SendBytes(frame.data(), frame.size()));
  obs::Json doc = ValueOrDie(client->Read());
  ASSERT_NE(doc.Find("ok"), nullptr);
  EXPECT_FALSE(doc.Find("ok")->AsBool());
  ASSERT_NE(doc.Find("error"), nullptr);
  EXPECT_EQ(doc.Find("error")->Find("kind")->AsString(), "protocol");
  // The connection is still good: a well-formed request now succeeds.
  obs::Json good = ValueOrDie(client->Call(kGoodQuery));
  EXPECT_TRUE(good.Find("ok")->AsBool());
}

TEST_F(ServeTest, MissingStatementIsProtocolError) {
  StartServer(ServerOptions{});
  auto client = Connect();
  const std::string frame = EncodeFrame("{\"id\": 12}");
  MSV_ASSERT_OK(client->SendBytes(frame.data(), frame.size()));
  obs::Json doc = ValueOrDie(client->Read());
  EXPECT_FALSE(doc.Find("ok")->AsBool());
  EXPECT_EQ(doc.Find("error")->Find("kind")->AsString(), "protocol");
}

TEST_F(ServeTest, OutOfRangeIdsAreProtocolErrors) {
  StartServer(ServerOptions{});
  auto client = Connect();
  for (const char* id : {"-1", "1e300", "1.5"}) {
    const std::string frame = EncodeFrame(std::string("{\"id\": ") + id +
                                          ", \"statement\": \"SHOW VIEWS;\"}");
    MSV_ASSERT_OK(client->SendBytes(frame.data(), frame.size()));
    obs::Json doc = ValueOrDie(client->Read());
    EXPECT_FALSE(doc.Find("ok")->AsBool()) << id;
    EXPECT_EQ(doc.Find("error")->Find("kind")->AsString(), "protocol") << id;
  }
  // The connection stays usable.
  obs::Json doc = ValueOrDie(client->Call(kGoodQuery));
  EXPECT_TRUE(doc.Find("ok")->AsBool());
}

TEST_F(ServeTest, DeeplyNestedFrameIsProtocolErrorNotACrash) {
  StartServer(ServerOptions{});
  auto client = Connect();
  // 100 KB of '[' — one parser recursion per level would blow the I/O
  // thread's stack.
  const std::string frame = EncodeFrame(std::string(100000, '['));
  MSV_ASSERT_OK(client->SendBytes(frame.data(), frame.size()));
  obs::Json doc = ValueOrDie(client->Read());
  EXPECT_FALSE(doc.Find("ok")->AsBool());
  EXPECT_EQ(doc.Find("error")->Find("kind")->AsString(), "protocol");
  // The server is alive: a fresh session is answered.
  auto fresh = Connect();
  obs::Json answer = ValueOrDie(fresh->Call(kGoodQuery));
  EXPECT_TRUE(answer.Find("ok")->AsBool());
}

TEST_F(ServeTest, OversizedFrameGetsTypedErrorThenDrop) {
  StartServer(ServerOptions{});
  auto client = Connect();
  // Header declaring one byte past the ceiling; the server convicts on
  // the header.
  const std::string header = FrameHeader(kMaxFrameBytes + 1);
  MSV_ASSERT_OK(client->SendBytes(header.data(), header.size()));
  obs::Json doc = ValueOrDie(client->Read());
  EXPECT_FALSE(doc.Find("ok")->AsBool());
  EXPECT_EQ(doc.Find("error")->Find("kind")->AsString(), "protocol");
  EXPECT_NE(doc.Find("error")->Find("message")->AsString().find("exceeds"),
            std::string::npos);
  // ... then closes the connection.
  auto eof = client->Read(/*timeout_ms=*/5000);
  ASSERT_FALSE(eof.ok());
  EXPECT_NE(std::string(eof.status().message()).find("closed"),
            std::string::npos)
      << eof.status().ToString();
}

TEST_F(ServeTest, MidFrameDisconnectLeavesOtherSessionsServing) {
  StartServer(ServerOptions{});
  auto victim = Connect();
  auto healthy = Connect();
  // Header + half a body, then vanish.
  const std::string frame = EncodeFrame("{\"statement\": \"SHOW VIEWS;\"}");
  MSV_ASSERT_OK(
      victim->SendBytes(frame.data(), frame.size() / 2));
  victim->Close();
  for (int i = 0; i < 3; ++i) {
    obs::Json doc = ValueOrDie(healthy->Call(kGoodQuery));
    EXPECT_TRUE(doc.Find("ok")->AsBool());
  }
}

TEST_F(ServeTest, SlowLorisIsSweptWhileHealthySessionsContinue) {
  ServerOptions options;
  options.stall_timeout_ms = 200;
  StartServer(options);
  auto loris = Connect();
  auto healthy = Connect();
  // Park the loris mid-frame: header only, body never arrives.
  const unsigned char header[4] = {0x00, 0x00, 0x00, 0x40};
  MSV_ASSERT_OK(loris->SendBytes(header, sizeof(header)));
  // The sweep closes the stalled connection within timeout + poll slack.
  auto eof = loris->Read(/*timeout_ms=*/10'000);
  ASSERT_FALSE(eof.ok());
  EXPECT_NE(std::string(eof.status().message()).find("closed"),
            std::string::npos)
      << eof.status().ToString();
  // Idle-but-clean connections are NOT swept (no partial frame pending),
  // and keep serving after the sweep.
  obs::Json doc = ValueOrDie(healthy->Call(kGoodQuery));
  EXPECT_TRUE(doc.Find("ok")->AsBool());
}

TEST_F(ServeTest, BurstPastAdmissionQueueGetsTypedOverload) {
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  StartServer(options);
  auto client = Connect();
  // Blast a pipeline of requests without reading. The single worker
  // drains at execution speed while the I/O thread admits at parse
  // speed, so most of the burst must bounce off the 1-deep queue.
  constexpr int kBurst = 32;
  for (int i = 0; i < kBurst; ++i) {
    MSV_ASSERT_OK(
        client->Send(static_cast<uint64_t>(i + 1), kGoodQuery));
  }
  int ok = 0, overload = 0, other = 0;
  for (int i = 0; i < kBurst; ++i) {
    obs::Json doc = ValueOrDie(client->Read(/*timeout_ms=*/30'000));
    if (doc.Find("ok")->AsBool()) {
      ++ok;
    } else if (doc.Find("error")->Find("kind")->AsString() == "overload") {
      ++overload;
      EXPECT_NE(
          doc.Find("error")->Find("message")->AsString().find("queue full"),
          std::string::npos);
    } else {
      ++other;
    }
  }
  EXPECT_EQ(ok + overload, kBurst);
  EXPECT_EQ(other, 0);
  EXPECT_GE(ok, 1) << "admitted requests must still be served";
  EXPECT_GE(overload, 1) << "a 32-deep burst into a 1-deep queue must shed";
  // Overload is retryable: the same connection serves once pressure is off.
  obs::Json doc = ValueOrDie(client->Call(kGoodQuery));
  EXPECT_TRUE(doc.Find("ok")->AsBool());
}

TEST_F(ServeTest, ParseAndExecFailuresAreDistinctlyTyped) {
  StartServer(ServerOptions{});
  auto client = Connect();
  auto parse = client->Call("THIS IS NOT MSVQL;");
  ASSERT_FALSE(parse.ok());
  EXPECT_EQ(std::string(parse.status().message()).rfind("parse: ", 0), 0u)
      << parse.status().ToString();
  auto exec = client->Call(
      "ESTIMATE AVG(amount) FROM no_such_view SAMPLES 8;");
  ASSERT_FALSE(exec.ok());
  EXPECT_EQ(std::string(exec.status().message()).rfind("exec: ", 0), 0u)
      << exec.status().ToString();
  // Typed failures never poison the session.
  obs::Json doc = ValueOrDie(client->Call(kGoodQuery));
  EXPECT_TRUE(doc.Find("ok")->AsBool());
}

TEST_F(ServeTest, OutOfRangeCountIsParseErrorAndConnectionSurvives) {
  StartServer(ServerOptions{});
  auto client = Connect();
  auto reply = client->Call(
      "ESTIMATE AVG(amount) FROM sv WHERE day BETWEEN 1000 AND 90000 "
      "SAMPLES 1e23;");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(std::string(reply.status().message()).rfind("parse: ", 0), 0u)
      << reply.status().ToString();
  obs::Json doc = ValueOrDie(client->Call(kGoodQuery));
  EXPECT_TRUE(doc.Find("ok")->AsBool());
}

/// Races connection setup/teardown against in-flight queries. The
/// assertions are mild on purpose — under TSan this test's job is to
/// make the fd-lifetime and staged-output synchronization misbehave if
/// it can.
TEST_F(ServeTest, ConnectionChurnUnderConcurrentLoad) {
  ServerOptions options;
  options.workers = 2;
  StartServer(options);
  const int port = server_->port();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Query-churn threads: connect, one query, disconnect, repeat.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 15; ++i) {
        auto client = Client::Connect("127.0.0.1", port);
        if (!client.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto doc = (*client)->Call(
            "ESTIMATE AVG(amount) FROM sv WHERE day BETWEEN 1000 AND "
            "90000 SAMPLES 16;");
        if (!doc.ok()) failures.fetch_add(1);
        // Odd iterations close abruptly with a request possibly staged.
        if ((i + t) % 2 == 0) (*client)->Close();
      }
    });
  }
  // Connect-and-vanish thread: never sends a byte.
  threads.emplace_back([&] {
    for (int i = 0; i < 30; ++i) {
      auto client = Client::Connect("127.0.0.1", port);
      if (!client.ok()) failures.fetch_add(1);
    }
  });
  // Send-and-vanish thread: request in flight when the socket dies.
  threads.emplace_back([&] {
    for (int i = 0; i < 15; ++i) {
      auto client = Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures.fetch_add(1);
        continue;
      }
      (void)(*client)->Send(1, "ESTIMATE AVG(amount) FROM sv SAMPLES 16;");
      (*client)->Close();
    }
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // The server is still healthy after the storm.
  auto client = Connect();
  obs::Json doc = ValueOrDie(client->Call(kGoodQuery));
  EXPECT_TRUE(doc.Find("ok")->AsBool());
}

TEST_F(ServeTest, StopWithQueuedWorkDoesNotHang) {
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 16;
  StartServer(options);
  auto client = Connect();
  for (int i = 0; i < 8; ++i) {
    MSV_ASSERT_OK(
        client->Send(static_cast<uint64_t>(i + 1), kGoodQuery));
  }
  server_->Stop();  // must join cleanly with requests still queued
  // Stop() closed the session: the client reads at most the answers
  // sent before it, then the end of the stream (not a timeout).
  for (int i = 0; i <= 8; ++i) {
    auto doc = client->Read(/*timeout_ms=*/5000);
    if (doc.ok()) continue;
    EXPECT_EQ(std::string(doc.status().message()).find("timeout"),
              std::string::npos)
        << doc.status().ToString();
    return;
  }
  ADD_FAILURE() << "more answers than requests";
}

}  // namespace
}  // namespace msv
