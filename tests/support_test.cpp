#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "omx/support/diagnostics.hpp"
#include "omx/support/fork_join.hpp"
#include "omx/support/interner.hpp"
#include "omx/support/json.hpp"
#include "omx/support/rng.hpp"
#include "omx/support/timer.hpp"

namespace omx {
namespace {

TEST(Interner, AssignsDenseIdsInOrder) {
  Interner in;
  EXPECT_EQ(in.intern("alpha"), 0u);
  EXPECT_EQ(in.intern("beta"), 1u);
  EXPECT_EQ(in.intern("gamma"), 2u);
  EXPECT_EQ(in.size(), 3u);
}

TEST(Interner, InternIsIdempotent) {
  Interner in;
  const SymbolId a = in.intern("x");
  EXPECT_EQ(in.intern("x"), a);
  EXPECT_EQ(in.size(), 1u);
}

TEST(Interner, RoundTripsNames) {
  Interner in;
  const SymbolId a = in.intern("w[3].contact.fn");
  EXPECT_EQ(in.name(a), "w[3].contact.fn");
}

TEST(Interner, FindDoesNotCreate) {
  Interner in;
  EXPECT_EQ(in.find("missing"), kInvalidSymbol);
  EXPECT_EQ(in.size(), 0u);
  in.intern("present");
  EXPECT_EQ(in.find("present"), 0u);
}

TEST(Interner, SurvivesManyInsertions) {
  // Regression guard for the stored-string_view stability issue: small
  // (SSO) strings must stay addressable across container growth.
  Interner in;
  for (int i = 0; i < 10000; ++i) {
    in.intern("s" + std::to_string(i));
  }
  for (int i = 0; i < 10000; ++i) {
    const std::string s = "s" + std::to_string(i);
    EXPECT_EQ(in.find(s), static_cast<SymbolId>(i)) << s;
  }
}

TEST(Interner, EmptyAndWeirdStrings) {
  Interner in;
  const SymbolId e = in.intern("");
  EXPECT_EQ(in.name(e), "");
  const SymbolId w = in.intern("a b\tc\n");
  EXPECT_EQ(in.name(w), "a b\tc\n");
}

TEST(Diagnostics, ErrorCarriesLocation) {
  const Error e("bad thing", SourceLoc{3, 7});
  EXPECT_EQ(e.where().line, 3u);
  EXPECT_EQ(e.where().column, 7u);
  EXPECT_NE(std::string(e.what()).find("line 3:7"), std::string::npos);
}

TEST(Diagnostics, ErrorWithoutLocation) {
  const Error e("plain");
  EXPECT_FALSE(e.where().valid());
  EXPECT_STREQ(e.what(), "plain");
}

TEST(Diagnostics, RequireThrowsBug) {
  EXPECT_THROW(OMX_REQUIRE(false, "should fire"), Bug);
  EXPECT_NO_THROW(OMX_REQUIRE(true, "should not fire"));
}

TEST(Rng, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  SplitMix64 r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Timer, MeasuresMonotonically) {
  Stopwatch sw;
  const double a = sw.seconds();
  const double b = sw.seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Timer, SpinForWaitsApproximately) {
  Stopwatch sw;
  spin_for(1e-4);
  EXPECT_GE(sw.seconds(), 1e-4);
}

TEST(Json, ParsesNestedDocument) {
  const support::json::Value v = support::json::parse(
      "{\"model\": \"m1\", \"scenarios\": 3, \"stream\": true,"
      " \"tol\": {\"rtol\": 1e-6}, \"rows\": [1, 2, 3], \"nil\": null}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get_string("model", ""), "m1");
  EXPECT_EQ(v.get_number("scenarios", 0.0), 3.0);
  EXPECT_TRUE(v.get_bool("stream", false));
  const support::json::Value* tol = v.find("tol");
  ASSERT_NE(tol, nullptr);
  EXPECT_EQ(tol->get_number("rtol", 0.0), 1e-6);
  const support::json::Value* rows = v.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 3u);
  EXPECT_EQ(rows->array[2].number, 3.0);
  ASSERT_NE(v.find("nil"), nullptr);
  EXPECT_TRUE(v.find("nil")->is_null());
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(Json, DecodesStringEscapes) {
  const support::json::Value v = support::json::parse(
      "{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"}");
  EXPECT_EQ(v.get_string("s", ""), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(Json, TypedGettersDistinguishAbsentFromWrongType) {
  const support::json::Value v =
      support::json::parse("{\"n\": 4, \"s\": \"x\", \"nil\": null}");
  // Absent or null -> fallback.
  EXPECT_EQ(v.get_number("missing", 7.0), 7.0);
  EXPECT_EQ(v.get_number("nil", 7.0), 7.0);
  // Present with the wrong type -> malformed request, throws.
  EXPECT_THROW(v.get_number("s", 0.0), omx::Error);
  EXPECT_THROW(v.get_string("n", ""), omx::Error);
  EXPECT_THROW(v.get_bool("n", false), omx::Error);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(support::json::parse(""), omx::Error);
  EXPECT_THROW(support::json::parse("{"), omx::Error);
  EXPECT_THROW(support::json::parse("{\"a\": 1} trailing"), omx::Error);
  EXPECT_THROW(support::json::parse("{'a': 1}"), omx::Error);
  EXPECT_THROW(support::json::parse("{\"a\": 01}"), omx::Error);
  EXPECT_THROW(support::json::parse("[1, 2,]"), omx::Error);
  EXPECT_THROW(support::json::parse("\"\\x\""), omx::Error);
}

TEST(Json, RejectsRunawayNesting) {
  // 64 levels against the 32-level cap: attacker-controlled recursion
  // depth must not reach the stack guard.
  std::string deep;
  for (int i = 0; i < 64; ++i) {
    deep += "[";
  }
  EXPECT_THROW(support::json::parse(deep), omx::Error);
}

// ------------------------------------------------------------ fork_join

/// Every index of `n` arrives, then spins until all `n` have arrived (or a
/// 10 s deadline passes). True iff all were running at the same time.
bool all_concurrent(std::atomic<std::size_t>& arrived, std::size_t n) {
  arrived.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.load() < n) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

TEST(ForkJoin, RunsEveryIndexOnceWithIndexZeroOnTheCaller) {
  for (const std::size_t n : {0u, 1u, 2u, 5u}) {
    std::vector<std::atomic<int>> runs(n);
    std::vector<std::thread::id> ids(n);
    auto fn = [&](std::size_t i) {
      runs[i].fetch_add(1);
      ids[i] = std::this_thread::get_id();
    };
    support::fork_join(n, fn);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "n=" << n << " index " << i;
      EXPECT_EQ(ids[i] == std::this_thread::get_id(), i == 0)
          << "n=" << n << " index " << i;
    }
  }
}

TEST(ForkJoin, IndicesRunConcurrently) {
  // Each index waits for all the others: any index held back behind
  // another would miss the deadline.
  std::atomic<std::size_t> arrived{0};
  std::atomic<int> ok{0};
  auto fn = [&](std::size_t) { ok.fetch_add(all_concurrent(arrived, 6)); };
  support::fork_join(6, fn);
  EXPECT_EQ(ok.load(), 6);
}

TEST(ForkJoin, ConcurrentCallersNeverWaitOnEachOther) {
  std::atomic<std::size_t> arrived{0};
  std::atomic<int> ok{0};
  auto fn = [&](std::size_t) { ok.fetch_add(all_concurrent(arrived, 6)); };
  std::thread other([&] { support::fork_join(3, fn); });
  support::fork_join(3, fn);
  other.join();
  EXPECT_EQ(ok.load(), 6);
}

TEST(ForkJoin, HelperExceptionRethrownAfterEveryIndexReturned) {
  std::atomic<int> finished{0};
  auto fn = [&](std::size_t i) {
    if (i == 1) {
      throw std::runtime_error("index 1 failed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    finished.fetch_add(1);
  };
  try {
    support::fork_join(4, fn);
    ADD_FAILURE() << "fork_join swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 1 failed");
    // Indices 0, 2 and 3 had all returned before the rethrow.
    EXPECT_EQ(finished.load(), 3);
  }

  // The next call works.
  std::atomic<int> runs{0};
  auto count = [&](std::size_t) { runs.fetch_add(1); };
  support::fork_join(4, count);
  EXPECT_EQ(runs.load(), 4);
}

TEST(ForkJoin, NestedCallInsideHelperCompletes) {
  // An inner fork_join on a helper must get fresh helpers, not wait for
  // the outer call's (busy) ones.
  std::atomic<int> inner_runs{0};
  std::atomic<std::size_t> arrived{0};
  std::atomic<int> ok{0};
  auto inner = [&](std::size_t) {
    inner_runs.fetch_add(1);
    ok.fetch_add(all_concurrent(arrived, 3));
  };
  auto outer = [&](std::size_t i) {
    if (i == 1) {
      support::fork_join(3, inner);
    }
  };
  support::fork_join(3, outer);
  EXPECT_EQ(inner_runs.load(), 3);
  EXPECT_EQ(ok.load(), 3);
}

TEST(ForkJoin, SequentialCallsReuseOneHelper) {
  std::set<std::thread::id> helper_ids;
  std::thread::id id;
  auto fn = [&](std::size_t i) {
    if (i == 1) {
      id = std::this_thread::get_id();
    }
  };
  for (int call = 0; call < 200; ++call) {
    support::fork_join(2, fn);
    helper_ids.insert(id);
  }
  EXPECT_EQ(helper_ids.size(), 1u);
  EXPECT_NE(*helper_ids.begin(), std::this_thread::get_id());
}

}  // namespace
}  // namespace omx
