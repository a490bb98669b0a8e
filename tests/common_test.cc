#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/result.h"
#include "common/cancellation.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace uniclean {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad rule");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad rule");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad rule");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Corruption("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kCorruption, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kResourceExhausted,
        StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
        StatusCode::kUnavailable, StatusCode::kDataLoss}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, CodeNamesAreDistinct) {
  std::set<std::string> names;
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kCorruption, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kResourceExhausted,
        StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
        StatusCode::kUnavailable, StatusCode::kDataLoss}) {
    EXPECT_TRUE(names.insert(StatusCodeToString(code)).second)
        << "duplicate name " << StatusCodeToString(code);
  }
  EXPECT_EQ(names.size(), 13u);
}

TEST(StatusTest, EveryFactoryProducesItsCode) {
  EXPECT_EQ(Status::InvalidArgument("m").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("m").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Corruption("m").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::OutOfRange("m").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("m").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("m").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("m").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ResourceExhausted("m").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DeadlineExceeded("m").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Cancelled("m").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::Unavailable("m").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DataLoss("m").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Status::OK().code(), StatusCode::kOk);
}

TEST(StatusTest, ToStringRoundTripsCodeName) {
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FailedPrecondition: x");
  EXPECT_EQ(Status::Internal("").ToString(), "Internal: ");
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "DeadlineExceeded: late");
  EXPECT_EQ(Status::Cancelled("stop").ToString(), "Cancelled: stop");
  EXPECT_EQ(Status::Unavailable("busy").ToString(), "Unavailable: busy");
  EXPECT_EQ(Status::DataLoss("bad crc").ToString(), "DataLoss: bad crc");
}

TEST(StatusTest, MoveKeepsCodeAndMessage) {
  Status s = Status::Corruption("bit rot");
  Status moved = std::move(s);
  EXPECT_EQ(moved, Status::Corruption("bit rot"));
}

Status FailingOperation() { return Status::Corruption("broken"); }

Status PropagationSite() {
  UC_RETURN_IF_ERROR(FailingOperation());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(PropagationSite(), Status::Corruption("broken"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterOf(int x) {
  UC_ASSIGN_OR_RETURN(int half, HalfOf(x));
  UC_ASSIGN_OR_RETURN(int quarter, HalfOf(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnChains) {
  ASSERT_TRUE(QuarterOf(8).ok());
  EXPECT_EQ(QuarterOf(8).value(), 2);
  EXPECT_FALSE(QuarterOf(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(QuarterOf(7).ok());
}

TEST(ResultTest, HoldsMoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 7);
  // Rvalue value() transfers ownership out of the Result.
  std::unique_ptr<int> owned = std::move(r).value();
  ASSERT_NE(owned, nullptr);
  EXPECT_EQ(*owned, 7);
}

TEST(ResultTest, MoveConstructionPreservesValue) {
  Result<std::string> a(std::string("payload"));
  Result<std::string> b = std::move(a);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), "payload");
}

TEST(ResultTest, MoveConstructionPreservesError) {
  Result<std::string> a(Status::OutOfRange("past the end"));
  Result<std::string> b = std::move(a);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status(), Status::OutOfRange("past the end"));
}

TEST(ResultTest, ErrorConstructionFromEveryCode) {
  for (const Status& status :
       {Status::InvalidArgument("a"), Status::NotFound("b"),
        Status::Corruption("c"), Status::OutOfRange("d"),
        Status::FailedPrecondition("e"), Status::Unimplemented("f"),
        Status::Internal("g"), Status::DataLoss("h")}) {
    Result<int> r(status);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status(), status);
  }
}

Result<std::unique_ptr<int>> MakeBox(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return std::make_unique<int>(x);
}

Result<int> UnboxDoubled(int x) {
  UC_ASSIGN_OR_RETURN(std::unique_ptr<int> box, MakeBox(x));
  return *box * 2;
}

TEST(ResultTest, AssignOrReturnMovesMoveOnlyValues) {
  ASSERT_TRUE(UnboxDoubled(21).ok());
  EXPECT_EQ(UnboxDoubled(21).value(), 42);
  EXPECT_EQ(UnboxDoubled(-1).status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MutableAccessWritesThrough) {
  Result<std::vector<int>> r(std::vector<int>{1, 2});
  r->push_back(3);
  (*r)[0] = 9;
  EXPECT_EQ(r.value(), (std::vector<int>{9, 2, 3}));
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "", "yz"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, ToLowerAndStartsWith) {
  EXPECT_EQ(ToLower("AbC 9!"), "abc 9!");
  EXPECT_TRUE(StartsWith("edinburgh", "edi"));
  EXPECT_FALSE(StartsWith("ed", "edi"));
}

TEST(StringUtilTest, ParseNumberAcceptsOneWholeInRangeToken) {
  int i = 0;
  EXPECT_TRUE(ParseNumber("42", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(ParseNumber("-7", &i));
  EXPECT_EQ(i, -7);
  EXPECT_TRUE(ParseNumber("2147483647", &i));
  EXPECT_EQ(i, 2147483647);
  uint64_t u = 0;
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  double d = 0.0;
  EXPECT_TRUE(ParseNumber("0.8", &d));
  EXPECT_DOUBLE_EQ(d, 0.8);
  EXPECT_TRUE(ParseNumber("-1e-3", &d));
  EXPECT_DOUBLE_EQ(d, -1e-3);
}

TEST(StringUtilTest, ParseNumberRejectsJunkOverflowSignsAndEmpty) {
  int i = 5;
  for (const char* bad : {"", "5x", "x5", " 5", "5 ", "+5", "5.0", "1e3",
                          "2147483648", "-2147483649", "0x10", "-"}) {
    EXPECT_FALSE(ParseNumber(bad, &i)) << "'" << bad << "'";
  }
  EXPECT_EQ(i, 5);  // untouched on failure
  uint64_t u = 9;
  for (const char* bad : {"", "-1", "+1", "18446744073709551616", "1\n",
                          "12abc"}) {
    EXPECT_FALSE(ParseNumber(bad, &u)) << "'" << bad << "'";
  }
  EXPECT_EQ(u, 9u);
  double d = 0.5;
  for (const char* bad : {"", "abc", "0.8x", " 0.8", "+0.8", "1e999", "inf",
                          "nan", "0.8 "}) {
    EXPECT_FALSE(ParseNumber(bad, &d)) << "'" << bad << "'";
  }
  EXPECT_EQ(d, 0.5);
}

TEST(ByteReaderTest, RoundTripsEveryEncoder) {
  std::string buf;
  PutU8(&buf, 0xAB);
  PutU32(&buf, 0x01020304u);
  PutU64(&buf, 0x1122334455667788ull);
  PutLp(&buf, "lp");
  buf += "tail";
  // Little-endian on the wire, whatever the host order.
  EXPECT_EQ(buf.substr(1, 4), std::string("\x04\x03\x02\x01", 4));
  ByteReader r(buf, StatusCode::kCorruption);
  EXPECT_EQ(r.U8().value(), 0xAB);
  EXPECT_EQ(r.U32().value(), 0x01020304u);
  EXPECT_EQ(r.U64().value(), 0x1122334455667788ull);
  EXPECT_EQ(r.Lp().value(), "lp");
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.Raw(2).value(), "ta");
  EXPECT_EQ(r.Rest(), "il");
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.Rest(), "");
}

TEST(ByteReaderTest, ShortReadAtEveryWidthReportsTheConfiguredCode) {
  for (StatusCode code : {StatusCode::kCorruption, StatusCode::kDataLoss}) {
    EXPECT_EQ(ByteReader("", code).U8().status().code(), code);
    EXPECT_EQ(ByteReader("abc", code).U32().status().code(), code);
    EXPECT_EQ(ByteReader("abcdefg", code).U64().status().code(), code);
    EXPECT_EQ(ByteReader("ab", code).Lp().status().code(), code);
    EXPECT_EQ(ByteReader("abc", code).Raw(4).status().code(), code);
  }
}

TEST(ByteReaderTest, ForgedLengthsFailWithoutConsumingThePayload) {
  std::string huge;
  PutU32(&huge, 0xFFFFFFFFu);
  huge += "xyz";
  ByteReader r(huge, StatusCode::kCorruption);
  Result<std::string_view> lp = r.Lp();
  ASSERT_FALSE(lp.ok());
  EXPECT_EQ(lp.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.remaining(), 3u);  // only the length prefix was consumed

  std::string one_over;
  PutU32(&one_over, 4);
  one_over += "abc";  // remaining() + 1 declared
  ByteReader s(one_over, StatusCode::kDataLoss);
  EXPECT_EQ(s.Lp().status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.Rest(), "abc");

  ByteReader t("abc", StatusCode::kDataLoss);
  EXPECT_FALSE(t.Raw(4).ok());
  EXPECT_EQ(t.Raw(3).value(), "abc");  // a failed read leaves the cursor
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.U8().status().code(), StatusCode::kDataLoss);
}

std::string JsonString(std::string_view v) {
  JsonWriter w;
  w.String(v);
  return w.str();
}

TEST(JsonWriterTest, StringEscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(JsonString("plain"), "\"plain\"");
  EXPECT_EQ(JsonString("r\"1"), "\"r\\\"1\"");
  EXPECT_EQ(JsonString("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonString("\n\r\t"), "\"\\n\\r\\t\"");
  EXPECT_EQ(JsonString(std::string("\x01\x1f\0", 3)),
            "\"\\u0001\\u001f\\u0000\"");
  // Bytes from 0x20 up, UTF-8 included, pass through.
  EXPECT_EQ(JsonString(" ~\xc3\xa9\x7f"), "\" ~\xc3\xa9\x7f\"");
  // Keys are escaped too.
  JsonWriter w;
  w.BeginObject().Key("k\"").Null().EndObject();
  EXPECT_EQ(w.str(), "{\"k\\\"\": null}");
}

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter w;
  w.BeginObject().Key("o").BeginObject().EndObject();
  w.Key("a").BeginArray().EndArray().EndObject();
  EXPECT_EQ(w.str(), "{\"o\": {}, \"a\": []}");
  JsonWriter top;
  top.BeginArray().EndArray();
  EXPECT_EQ(top.str(), "[]");
}

TEST(JsonWriterTest, NestedObjectsAndScalars) {
  JsonWriter w;
  w.BeginObject()
      .Key("n").Int(-42)
      .Key("u").Uint(18446744073709551615ull)
      .Key("in").BeginObject().Key("t").Bool(true).Key("f").Bool(false)
      .EndObject()
      .Key("d").Double(0.5, 6)
      .Key("r").Raw("{\"x\": 1}")
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\"n\": -42, \"u\": 18446744073709551615, "
            "\"in\": {\"t\": true, \"f\": false}, \"d\": 0.500000, "
            "\"r\": {\"x\": 1}}");
}

TEST(JsonWriterTest, DoubleKeepsDecimalsAndNonFiniteIsNull) {
  JsonWriter w;
  w.BeginArray()
      .Double(1.5, 1)
      .Double(-3.14159, 4)
      .Double(std::nan(""), 6)
      .Double(std::numeric_limits<double>::infinity(), 6)
      .EndArray();
  EXPECT_EQ(w.str(), "[1.5, -3.1416, null, null]");
}

TEST(JsonWriterTest, ObjectArrayElementsStartOnANewLine) {
  JsonWriter w;
  w.BeginObject().Key("results").BeginArray();
  w.BeginObject().Key("a").Int(1).EndObject();
  w.BeginObject().Key("a").Int(2).EndObject();
  w.EndArray().Key("xs").BeginArray().Int(1).Int(2).EndArray().EndObject();
  EXPECT_EQ(w.str(),
            "{\"results\": [\n{\"a\": 1},\n{\"a\": 2}], "
            "\"xs\": [1, 2]}");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, SkewedIndexInRangeAndSkewed) {
  Rng rng(5);
  int low_half = 0;
  const int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    size_t v = rng.SkewedIndex(100);
    EXPECT_LT(v, 100u);
    if (v < 50) ++low_half;
  }
  // Skew must favor small indices clearly.
  EXPECT_GT(low_half, kDraws / 2);
}

TEST(RngTest, RandomWordHasRequestedLengthAndAlphabet) {
  Rng rng(9);
  std::string w = rng.RandomWord(32);
  ASSERT_EQ(w.size(), 32u);
  for (char c : w) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(CancelTokenTest, StartsLive) {
  common::CancelToken token;
  EXPECT_FALSE(token.IsCancelled());
  EXPECT_TRUE(token.status().ok());
  EXPECT_FALSE(token.has_deadline());
}

TEST(CancelTokenTest, ExplicitCancelLatchesWithReason) {
  common::CancelToken token;
  token.Cancel("client went away");
  EXPECT_TRUE(token.IsCancelled());
  EXPECT_EQ(token.status(), Status::Cancelled("client went away"));
  // First reason wins; a token never un-cancels.
  token.Cancel("other reason");
  EXPECT_EQ(token.status(), Status::Cancelled("client went away"));
}

TEST(CancelTokenTest, ExpiredDeadlineReportsDeadlineExceeded) {
  auto token = common::CancelToken::WithTimeout(0);
  EXPECT_TRUE(token->has_deadline());
  EXPECT_TRUE(token->IsCancelled());
  EXPECT_EQ(token->status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, FutureDeadlineStaysLive) {
  auto token = common::CancelToken::WithTimeout(60 * 1000);
  EXPECT_FALSE(token->IsCancelled());
  EXPECT_TRUE(token->status().ok());
}

TEST(CancelTokenTest, CountdownTripsOnTheNthPoll) {
  common::CancelToken token;
  token.CancelAfterChecksForTest(2);
  EXPECT_FALSE(token.IsCancelled());  // countdown 2 -> 1
  EXPECT_FALSE(token.IsCancelled());  // countdown 1 -> 0
  EXPECT_TRUE(token.IsCancelled());   // countdown 0: trips
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, PollCancelHelper) {
  EXPECT_TRUE(common::PollCancel(nullptr).ok());
  common::CancelToken token;
  EXPECT_TRUE(common::PollCancel(&token).ok());
  token.Cancel("stop");
  EXPECT_EQ(common::PollCancel(&token), Status::Cancelled("stop"));
}

}  // namespace
}  // namespace uniclean
