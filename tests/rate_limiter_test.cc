// Token-bucket rate limiter tests (DESIGN.md §10), driven by a fake
// clock so every wait is deterministic: SleepForMicroseconds advances
// NowMicros and nothing blocks for real.

#include "util/rate_limiter.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/crc32c.h"
#include "util/env.h"
#include "util/file_checksum.h"
#include "util/mem_env.h"

namespace fcae {

namespace {

/// Env stub whose only working pieces are the clock hooks the limiter
/// uses; sleeping advances the clock, so throttle waits resolve
/// instantly in test time.
class FakeClockEnv : public Env {
 public:
  uint64_t NowMicros() override {
    return micros_.load(std::memory_order_acquire);
  }
  void SleepForMicroseconds(int micros) override {
    micros_.fetch_add(micros, std::memory_order_acq_rel);
    sleeps_.fetch_add(1, std::memory_order_acq_rel);
  }
  uint64_t sleep_calls() const {
    return sleeps_.load(std::memory_order_acquire);
  }

  // Unused by the limiter.
  Status NewSequentialFile(const std::string&, SequentialFile**) override {
    return Status::NotSupported("FakeClockEnv");
  }
  Status NewRandomAccessFile(const std::string&,
                             RandomAccessFile**) override {
    return Status::NotSupported("FakeClockEnv");
  }
  Status NewWritableFile(const std::string&, WritableFile**) override {
    return Status::NotSupported("FakeClockEnv");
  }
  Status NewAppendableFile(const std::string&, WritableFile**) override {
    return Status::NotSupported("FakeClockEnv");
  }
  bool FileExists(const std::string&) override { return false; }
  Status GetChildren(const std::string&,
                     std::vector<std::string>*) override {
    return Status::NotSupported("FakeClockEnv");
  }
  Status RemoveFile(const std::string&) override {
    return Status::NotSupported("FakeClockEnv");
  }
  Status CreateDir(const std::string&) override {
    return Status::NotSupported("FakeClockEnv");
  }
  Status RemoveDir(const std::string&) override {
    return Status::NotSupported("FakeClockEnv");
  }
  Status GetFileSize(const std::string&, uint64_t*) override {
    return Status::NotSupported("FakeClockEnv");
  }
  Status RenameFile(const std::string&, const std::string&) override {
    return Status::NotSupported("FakeClockEnv");
  }
  Status LockFile(const std::string&, FileLock**) override {
    return Status::NotSupported("FakeClockEnv");
  }
  Status UnlockFile(FileLock*) override {
    return Status::NotSupported("FakeClockEnv");
  }
  void Schedule(void (*)(void*), void*) override {}
  void StartThread(void (*)(void*), void*) override {}

 private:
  std::atomic<uint64_t> micros_{1};
  std::atomic<uint64_t> sleeps_{0};
};

/// Sink WritableFile that records appended bytes.
class CountingFile : public WritableFile {
 public:
  Status Append(const Slice& data) override {
    appended += data.size();
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  size_t appended = 0;
};

}  // namespace

TEST(RateLimiterTest, ZeroRateNeverWaitsButStillCounts) {
  FakeClockEnv env;
  RateLimiter limiter(&env, 0);
  limiter.Request(50 * 1000 * 1000, RateLimiter::Priority::kLow);
  limiter.Request(1, RateLimiter::Priority::kHigh);
  EXPECT_EQ(0u, env.sleep_calls());
  EXPECT_EQ(2u, limiter.total_requests());
  EXPECT_EQ(50 * 1000 * 1000 + 1u, limiter.total_bytes_through());
  EXPECT_EQ(0u, limiter.total_throttled_bytes());
  EXPECT_EQ(0u, limiter.total_wait_micros());
}

TEST(RateLimiterTest, BurstWithinOneWindowPassesWithoutWaiting) {
  FakeClockEnv env;
  RateLimiter limiter(&env, 1000 * 1000);  // 1 MB/s -> 100 KB burst cap.
  env.SleepForMicroseconds(200 * 1000);    // Bank (capped) credit.
  const uint64_t sleeps_before = env.sleep_calls();
  limiter.Request(100 * 1000, RateLimiter::Priority::kLow);  // Exactly one window.
  EXPECT_EQ(sleeps_before, env.sleep_calls());
  EXPECT_EQ(0u, limiter.total_throttled_bytes());
  EXPECT_EQ(0u, limiter.total_wait_micros());
}

TEST(RateLimiterTest, ThrottledRequestWaitsForRefill) {
  FakeClockEnv env;
  RateLimiter limiter(&env, 1000 * 1000);  // 1 MB/s.
  env.SleepForMicroseconds(100 * 1000);    // Fill the bucket: 100 KB.
  const uint64_t start = env.NowMicros();
  // 300 KB at 1 MB/s: 100 KB banked, 200 KB must accrue -> ~200 ms.
  limiter.Request(300 * 1000, RateLimiter::Priority::kLow);
  const uint64_t elapsed = env.NowMicros() - start;
  EXPECT_GE(elapsed, 190 * 1000u);
  EXPECT_LE(elapsed, 260 * 1000u);
  EXPECT_GT(env.sleep_calls(), 0u);
  // The shortfall at first throttle is what is counted, exactly once.
  EXPECT_EQ(200 * 1000u, limiter.total_throttled_bytes());
  EXPECT_GE(limiter.total_wait_micros(), 190 * 1000u);
  EXPECT_EQ(300 * 1000u, limiter.total_bytes_through());
}

TEST(RateLimiterTest, IdleTimeCannotBankMoreThanOneBurstWindow) {
  FakeClockEnv env;
  RateLimiter limiter(&env, 1000 * 1000);
  env.SleepForMicroseconds(60 * 1000 * 1000);  // A minute idle.
  const uint64_t start = env.NowMicros();
  // Only one window (100 KB) of credit survived: 200 KB still waits.
  limiter.Request(200 * 1000, RateLimiter::Priority::kLow);
  EXPECT_GE(env.NowMicros() - start, 90 * 1000u);
}

TEST(RateLimiterTest, SetBytesPerSecondTakesEffectAndZeroOpensThrottle) {
  FakeClockEnv env;
  RateLimiter limiter(&env, 1000);  // 1 KB/s: everything throttles.
  limiter.SetBytesPerSecond(100 * 1000 * 1000);  // 100 MB/s.
  EXPECT_EQ(100 * 1000 * 1000u, limiter.bytes_per_second());
  env.SleepForMicroseconds(100 * 1000);
  const uint64_t sleeps_before = env.sleep_calls();
  limiter.Request(1000 * 1000, RateLimiter::Priority::kLow);  // 1 MB, < burst.
  EXPECT_EQ(sleeps_before, env.sleep_calls());

  limiter.SetBytesPerSecond(0);
  const uint64_t start = env.NowMicros();
  limiter.Request(500 * 1000 * 1000, RateLimiter::Priority::kLow);
  EXPECT_EQ(start, env.NowMicros());  // Unlimited again.
}

TEST(RateLimiterTest, RateLimitedFileChargesAppendsAgainstTheLimiter) {
  FakeClockEnv env;
  RateLimiter limiter(&env, 1000 * 1000);
  env.SleepForMicroseconds(100 * 1000);  // Bank the full burst window.

  CountingFile* sink = new CountingFile();
  RateLimitedWritableFile file(sink, &limiter, RateLimiter::Priority::kHigh);
  std::string chunk(25 * 1000, 'x');
  for (int i = 0; i < 8; i++) {  // 200 KB through a 100 KB bucket.
    ASSERT_TRUE(file.Append(chunk).ok());
  }
  ASSERT_TRUE(file.Flush().ok());
  ASSERT_TRUE(file.Sync().ok());
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(200 * 1000u, sink->appended);
  EXPECT_EQ(200 * 1000u, limiter.total_bytes_through());
  EXPECT_EQ(8u, limiter.total_requests());
  // The second 100 KB had to wait on refill.
  EXPECT_GT(limiter.total_wait_micros(), 0u);
  EXPECT_GT(limiter.total_throttled_bytes(), 0u);
}

TEST(RateLimiterTest, FileChecksumChargesOnlyTheBytesItReads) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  RateLimiter limiter(env.get(), 0);  // Unlimited, but still counting.
  struct Case {
    std::string name;
    size_t size;
    uint64_t requests;
  };
  // Under one 64 KiB chunk, and one chunk plus one byte. No request for
  // the read that finds the end of the file.
  const Case cases[] = {{"/small", 100, 1}, {"/chunk_plus_one", 65537, 2}};
  uint64_t charged = 0;
  for (const Case& c : cases) {
    std::string contents(c.size, '\0');
    for (size_t i = 0; i < c.size; i++) {
      contents[i] = static_cast<char>(i * 131 + c.size);
    }
    ASSERT_TRUE(WriteStringToFile(env.get(), contents, c.name).ok());
    const uint64_t requests_before = limiter.total_requests();
    uint32_t crc = 0;
    uint64_t size = 0;
    ASSERT_TRUE(
        ComputeFileChecksum(env.get(), c.name, &limiter, &crc, &size).ok());
    EXPECT_EQ(crc32c::Value(contents.data(), contents.size()), crc);
    EXPECT_EQ(c.size, size);
    charged += c.size;
    EXPECT_EQ(charged, limiter.total_bytes_through()) << c.name;
    EXPECT_EQ(c.requests, limiter.total_requests() - requests_before)
        << c.name;
  }
}

TEST(RateLimiterTest, NullLimiterWrapperIsAPassThrough) {
  CountingFile* sink = new CountingFile();
  RateLimitedWritableFile file(sink, nullptr, RateLimiter::Priority::kLow);
  ASSERT_TRUE(file.Append(Slice("abc")).ok());
  EXPECT_EQ(3u, sink->appended);
}

}  // namespace fcae
