// Direct TraceRecorder unit tests: enable/disable gating, record
// ordering, storage at volume, and flush formatting. (Filter/CSV-escaping/
// clear coverage lives in random_trace_test.cpp.)

#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace sf::sim {
namespace {

TEST(TraceGating, DisabledByDefault) {
  TraceRecorder tr;
  EXPECT_FALSE(tr.enabled());
  tr.record(1, "cat", "dropped");
  EXPECT_TRUE(tr.empty());
}

TEST(TraceGating, EnableStartsRecording) {
  TraceRecorder tr;
  tr.set_enabled(true);
  EXPECT_TRUE(tr.enabled());
  tr.record(1, "cat", "kept");
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_EQ(tr.event(0).name(), "kept");
}

TEST(TraceGating, DisableStopsRecordingButKeepsHistory) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.record(1, "cat", "before");
  tr.set_enabled(false);
  tr.record(2, "cat", "after");
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_EQ(tr.event(0).name(), "before");
  // Re-enabling appends after the preserved history.
  tr.set_enabled(true);
  tr.record(3, "cat", "resumed");
  ASSERT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr.event(1).name(), "resumed");
}

TEST(TraceOrdering, EventsKeepRecordOrder) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.record(5, "a", "first");
  tr.record(2, "b", "second");  // earlier timestamp, later record
  tr.record(5, "a", "third");   // duplicate timestamp
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.event(0).name(), "first");
  EXPECT_EQ(tr.event(1).name(), "second");
  EXPECT_EQ(tr.event(2).name(), "third");
}

TEST(TraceOrdering, AttrsKeepInsertionOrder) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.record(0, "c", "n", {{"z", "1"}, {"a", "2"}});
  const auto ev = tr.event(0);
  ASSERT_EQ(ev.attr_count(), 2u);
  EXPECT_EQ(ev.attr_at(0).first, "z");
  EXPECT_EQ(ev.attr_at(1).first, "a");
}

TEST(TraceFlush, EmptyRecorderWritesHeaderOnly) {
  TraceRecorder tr;
  std::ostringstream os;
  tr.write_csv(os);
  EXPECT_EQ(os.str(), "time,category,name,attrs\n");
}

TEST(TraceFlush, RowsFlushInRecordOrder) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.record(2, "b", "late", {{"k", "v"}});
  tr.record(1, "a", "early");  // no attrs: row ends after the comma
  std::ostringstream os;
  tr.write_csv(os);
  EXPECT_EQ(os.str(),
            "time,category,name,attrs\n"
            "2,b,late,k=v\n"
            "1,a,early,\n");
}

TEST(TraceFlush, FlushDoesNotConsumeEvents) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.record(1, "c", "n");
  std::ostringstream once;
  std::ostringstream twice;
  tr.write_csv(once);
  tr.write_csv(twice);
  EXPECT_EQ(once.str(), twice.str());
  EXPECT_EQ(tr.size(), 1u);
}

// Storage at volume: 10,000 records with 1 KB values each (10 MB) keep
// every record and value intact, and views taken afterwards read them
// back exactly.
TEST(TraceArena, ViewsStableAcrossChunkBoundaries) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const std::string big(1000, 'x');
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    tr.record(i, "arena", "fill", {{"i", std::to_string(i)}, {"pad", big}});
  }
  const auto first = tr.event(0);
  const auto last = tr.event(kN - 1);
  EXPECT_EQ(tr.size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(first.attr("i"), "0");
  EXPECT_EQ(first.attr("pad"), big);
  EXPECT_EQ(last.attr("i"), std::to_string(kN - 1));
  EXPECT_EQ(last.attr("pad"), big);
}

// clear() is a pure reset: refilling after a clear reproduces identical
// output (the bench pattern clears once per iteration).
TEST(TraceArena, ClearPoolsAndRefillsIdentically) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const auto fill = [&tr] {
    for (int i = 0; i < 9000; ++i) {
      tr.record(i, "pool", "ev", {{"n", std::to_string(i)}});
    }
  };
  fill();
  std::ostringstream first;
  tr.write_csv(first);
  tr.clear();
  EXPECT_TRUE(tr.empty());
  fill();
  std::ostringstream second;
  tr.write_csv(second);
  EXPECT_EQ(first.str(), second.str());
}

// A 200 KiB value round-trips exactly.
TEST(TraceArena, OversizedValueRoundTrips) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const std::string huge(200 * 1024, 'y');
  tr.record(0, "c", "n", {{"blob", huge}});
  EXPECT_EQ(tr.event(0).attr("blob"), huge);
}

}  // namespace
}  // namespace sf::sim
