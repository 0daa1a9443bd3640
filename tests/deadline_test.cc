// The stop signal: a CancelToken fires on cancel() or once its optional
// steady-clock expiry passes, records which came first, and is the only
// thing discovery, the canonical cover and ranking poll (through
// CancelScope). Runs in the TSan CI leg: the cross-thread cases check that
// cancelled() is safe to call from any thread.
#include "util/cancellation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "algo/discovery.h"
#include "datagen/benchmark_data.h"
#include "relation/encoder.h"
#include "test_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dhyfd {
namespace {

using Reason = CancelToken::Reason;

void SpinFor(double seconds) {
  Timer timer;
  while (timer.seconds() < seconds) {
  }
}

TEST(CancelTokenTest, NoExpiryNeverFires) {
  CancelToken token;
  for (int i = 0; i < 10000; ++i) ASSERT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), Reason::kNone);
}

TEST(CancelTokenTest, NonPositiveExpiryMeansNone) {
  for (double seconds : {0.0, -1.0, -1e300}) {
    CancelToken token(seconds);
    SpinFor(0.002);
    EXPECT_FALSE(token.cancelled()) << seconds;
    EXPECT_EQ(token.reason(), Reason::kNone) << seconds;
  }
  // Disarming an armed expiry before it passes leaves the token unfired.
  CancelToken token(0.001);
  token.expire_after(0);
  SpinFor(0.005);
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, FarFutureStaysOpen) {
  for (double seconds : {3600.0, 1e300}) {
    CancelToken token(seconds);
    for (int i = 0; i < 100000; ++i) ASSERT_FALSE(token.cancelled()) << seconds;
  }
}

TEST(CancelTokenTest, ExpiryIsSticky) {
  CancelToken token(0.01);
  SpinFor(0.05);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), Reason::kExpired);
  // Neither a later cancel nor disarming or re-arming undoes the expiry.
  token.cancel();
  token.expire_after(0);
  EXPECT_TRUE(token.cancelled());
  token.expire_after(3600);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), Reason::kExpired);
}

TEST(CancelTokenTest, ReasonSeesAnExpiryNobodyPolled) {
  CancelToken token(0.001);
  SpinFor(0.01);
  EXPECT_EQ(token.reason(), Reason::kExpired);
}

TEST(CancelTokenTest, CancelAndExpiryAreToldApart) {
  CancelToken cancelled(0.01);
  cancelled.cancel();
  SpinFor(0.05);  // the expiry passes too, after the cancel won
  EXPECT_TRUE(cancelled.cancelled());
  EXPECT_EQ(cancelled.reason(), Reason::kCancelled);

  CancelToken expired(0.001);
  SpinFor(0.01);
  EXPECT_TRUE(expired.cancelled());
  expired.cancel();
  EXPECT_EQ(expired.reason(), Reason::kExpired);
}

TEST(CancelTokenTest, ScopeBindsAndRestores) {
  EXPECT_EQ(CancelScope::Current(), nullptr);
  EXPECT_FALSE(CancelScope::CurrentCancelled());
  CancelToken outer;
  CancelToken inner(0.001);
  {
    CancelScope a(&outer);
    EXPECT_FALSE(CancelScope::CurrentCancelled());
    {
      CancelScope b(&inner);
      SpinFor(0.01);
      EXPECT_TRUE(CancelScope::CurrentCancelled());
    }
    EXPECT_EQ(CancelScope::Current(), &outer);
    EXPECT_FALSE(CancelScope::CurrentCancelled());
    outer.cancel();
    EXPECT_TRUE(CancelScope::CurrentCancelled());
  }
  EXPECT_EQ(CancelScope::Current(), nullptr);
}

TEST(CancelTokenTest, PolledFromManyThreadsOneReason) {
  // Every poller races to record the expiry; exactly one reason sticks and
  // a concurrent cancel() never overwrites it.
  for (int round = 0; round < 20; ++round) {
    CancelToken token(0.002);
    std::atomic<int> saw{0};
    std::vector<std::thread> pollers;
    for (int t = 0; t < 4; ++t) {
      pollers.emplace_back([&] {
        while (!token.cancelled()) {
        }
        saw.fetch_add(1);
      });
    }
    std::thread canceller([&] {
      SpinFor(0.002);
      token.cancel();
    });
    for (std::thread& t : pollers) t.join();
    canceller.join();
    EXPECT_EQ(saw.load(), 4);
    const Reason first = token.reason();
    EXPECT_NE(first, Reason::kNone);
    token.cancel();
    EXPECT_EQ(token.reason(), first);
  }
}

class AlgorithmDeadlineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AlgorithmDeadlineTest, TinyBudgetFlagsTimeout) {
  // A relation with real FD structure so every algorithm has work to abort:
  // derived columns plant FDs; random ones give agree-set volume.
  Random rng(99);
  std::vector<std::vector<int>> rows;
  for (int i = 0; i < 2500; ++i) {
    int a = static_cast<int>(rng.next_below(40));
    int b = static_cast<int>(rng.next_below(12));
    int e = static_cast<int>(rng.next_below(6));
    rows.push_back({a, b, (3 * a + b) % 31, (a + 7 * b + e) % 23, e,
                    static_cast<int>(rng.next_below(4)),
                    static_cast<int>(rng.next_below(5)),
                    static_cast<int>(rng.next_below(3))});
  }
  Relation r = testutil::FromValues(rows);
  auto algo = MakeDiscovery(GetParam());
  CancelToken tl(1e-6);
  CancelScope scope(&tl);
  DiscoveryResult res = algo->discover(r);
  EXPECT_TRUE(res.stats.timed_out) << GetParam();
  EXPECT_EQ(tl.reason(), Reason::kExpired) << GetParam();
}

TEST_P(AlgorithmDeadlineTest, GenerousBudgetCompletes) {
  Relation r = testutil::RandomRelation(7, 60, 5, 3);
  auto algo = MakeDiscovery(GetParam());
  CancelToken tl(3600);
  CancelScope scope(&tl);
  DiscoveryResult res = algo->discover(r);
  EXPECT_FALSE(res.stats.timed_out) << GetParam();
  FdSet expected = BruteForceDiscover(r);
  EXPECT_EQ(res.fds.size(), expected.size()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmDeadlineTest,
                         ::testing::ValuesIn(AllDiscoveryNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(DiscoveryStopTest, FiredTokenSkipsSetUpAndSampling) {
  // DHyFD and HyFD poll before each set-up step and between sampling
  // windows, so a token that fired before the run compares no pair and
  // validates no candidate, at degree 1 and on the pool.
  Relation r = EncodeRelation(GenerateBenchmark("ncvoter", 2000)).relation;
  ThreadPool pool(3);
  CancelToken tl;
  tl.cancel();
  CancelScope scope(&tl);
  for (const std::string name : {"dhyfd", "hyfd"}) {
    for (int degree : {1, 4}) {
      DiscoveryResult res = MakeDiscovery(name, degree, &pool)->discover(r);
      EXPECT_TRUE(res.stats.timed_out) << name << " degree " << degree;
      EXPECT_EQ(res.stats.pairs_compared, 0) << name << " degree " << degree;
      EXPECT_EQ(res.stats.validations, 0) << name << " degree " << degree;
    }
  }
}

TEST(MakeDiscoveryTest, FormerBudgetArgumentAcceptsOnlyZero) {
  EXPECT_EQ(MakeDiscovery("dhyfd", 0, 1, nullptr)->name(), "dhyfd");
  EXPECT_THROW(MakeDiscovery("dhyfd", 5.0, 1, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace dhyfd
