// Profiling spans: the enable gate and thread-grouped draining. The
// profiler is a process-wide singleton, so every test starts from a clean
// slate and leaves the profiler disabled.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace ftsched::obs {
namespace {

class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::global().enable(false);
    Profiler::global().clear();
  }
  void TearDown() override {
    Profiler::global().enable(false);
    Profiler::global().clear();
  }
};

TEST_F(SpanTest, DisabledProfilerRecordsNothing) {
  {
    ScopedSpan span("test.disabled");
  }
  FTSCHED_SPAN("test.disabled_macro");
  EXPECT_TRUE(Profiler::global().drain().empty());
}

TEST_F(SpanTest, EnabledSpanIsRecordedWithOrderedTimestamps) {
  Profiler::global().enable(true);
  {
    ScopedSpan span("test.enabled");
  }
  Profiler::global().enable(false);

  const std::vector<SpanRecord> spans = Profiler::global().drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test.enabled");
  EXPECT_LE(spans[0].start_ns, spans[0].end_ns);
  EXPECT_GE(spans[0].duration_ns(), 0);
}

TEST_F(SpanTest, DrainClearsTheBuffers) {
  Profiler::global().enable(true);
  {
    ScopedSpan span("test.drained");
  }
  Profiler::global().enable(false);
  EXPECT_EQ(Profiler::global().drain().size(), 1u);
  EXPECT_TRUE(Profiler::global().drain().empty());
}

TEST_F(SpanTest, SpansGroupByThreadWithDenseIndices) {
  Profiler::global().enable(true);
  {
    ScopedSpan span("test.main_thread");
  }
  std::thread worker([] {
    ScopedSpan span("test.worker_thread");
  });
  worker.join();
  Profiler::global().enable(false);

  // Buffers survive the worker's exit; drain sees both threads, grouped.
  const std::vector<SpanRecord> spans = Profiler::global().drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].thread, spans[1].thread);
  EXPECT_LE(spans[0].thread, 1u);
  EXPECT_LE(spans[1].thread, 1u);
  EXPECT_LE(spans[0].thread, spans[1].thread);
}

#if FTSCHED_OBS_ENABLED
TEST_F(SpanTest, MacroRecordsWhenEnabled) {
  Profiler::global().enable(true);
  {
    FTSCHED_SPAN("test.macro");
  }
  Profiler::global().enable(false);
  const std::vector<SpanRecord> spans = Profiler::global().drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test.macro");
}
#else
TEST_F(SpanTest, MacroIsCompiledOutWhenObsIsOff) {
  Profiler::global().enable(true);
  {
    FTSCHED_SPAN("test.macro");
  }
  Profiler::global().enable(false);
  EXPECT_TRUE(Profiler::global().drain().empty());
}
#endif

TEST_F(SpanTest, EnableFlagReadsBack) {
  EXPECT_FALSE(Profiler::global().enabled());
  Profiler::global().enable(true);
  EXPECT_TRUE(Profiler::global().enabled());
  Profiler::global().enable(false);
  EXPECT_FALSE(Profiler::global().enabled());
}

}  // namespace
}  // namespace ftsched::obs
