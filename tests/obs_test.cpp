// Unified observability layer tests: histogram bucket boundaries and
// percentile extraction, registry ownership/registration semantics and
// thread-safety (exercised under TSan in CI), profiler sampling and
// ring-buffer wraparound (including the slow-query log), profile spans
// agreeing with `explain`'s operator list, stats-snapshot coherence
// under a concurrent reader storm, and the `xq stats --json` payload
// round-tripping through an actual JSON parser.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "database.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace pxq {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::Profiler;
using obs::QuerySpan;

constexpr const char* kDoc =
    "<site>"
    "<people>"
    "<person id='p0'><name>n0</name><age>30</age></person>"
    "<person id='p1'><name>n1</name><age>41</age></person>"
    "<person id='p2'><name>n2</name><age>55</age></person>"
    "</people>"
    "<regions><zone><area>"
    "<item k='1'><price>10</price></item>"
    "<item k='2'><price>20</price></item>"
    "</area></zone></regions>"
    "</site>";

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser — just enough to prove the
// stats payload is real JSON with the documented shape. Numbers are
// kept as raw text (the test only checks presence and integer-ness).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kObject, kNumber, kString } kind = Kind::kNumber;
  std::string scalar;                      // number text or string body
  std::map<std::string, JsonValue> fields; // objects
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      out->push_back(s_[pos_++]);
    }
    return pos_ < s_.size() && s_[pos_++] == '"';
  }
  bool ParseNumber(JsonValue* out) {
    SkipWs();
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->scalar = s_.substr(start, pos_ - start);
    return true;
  }
  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    if (s_[pos_] == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      SkipWs();
      if (Eat('}')) return true;
      while (true) {
        std::string key;
        if (!ParseString(&key)) return false;
        if (!Eat(':')) return false;
        JsonValue v;
        if (!ParseValue(&v)) return false;
        out->fields.emplace(std::move(key), std::move(v));
        if (Eat(',')) continue;
        return Eat('}');
      }
    }
    if (s_[pos_] == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->scalar);
    }
    return ParseNumber(out);
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Histogram: bucket boundaries and percentiles
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 absorbs 0 and 1; bucket i covers [2^i, 2^(i+1)).
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 0);
  EXPECT_EQ(Histogram::BucketOf(2), 1);
  EXPECT_EQ(Histogram::BucketOf(3), 1);
  EXPECT_EQ(Histogram::BucketOf(4), 2);
  EXPECT_EQ(Histogram::BucketOf(7), 2);
  EXPECT_EQ(Histogram::BucketOf(8), 3);
  EXPECT_EQ(Histogram::BucketOf((int64_t{1} << 20)), 20);
  EXPECT_EQ(Histogram::BucketOf((int64_t{1} << 20) + 1), 20);
  // Everything past the last boundary lands in the unbounded top bucket.
  EXPECT_EQ(Histogram::BucketOf(int64_t{1} << 62), Histogram::kBuckets - 1);

  for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
    EXPECT_EQ(Histogram::BucketOf(Histogram::LowerBound(i)), i);
    EXPECT_EQ(Histogram::BucketOf(Histogram::UpperBound(i) - 1), i);
    EXPECT_EQ(Histogram::BucketOf(Histogram::UpperBound(i)), i + 1);
  }
}

TEST(HistogramTest, CountSumAndNegativeClamp) {
  Histogram h;
  h.Record(100);
  h.Record(200);
  h.Record(-5);  // clamped to 0
  const auto s = h.Snap();
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.sum, 300);
  EXPECT_EQ(s.counts[0], 1);  // the clamped sample
  EXPECT_EQ(h.Count(), 3);
  EXPECT_EQ(h.Sum(), 300);
}

TEST(HistogramTest, PercentilesLandInTheRightBucket) {
  Histogram h;
  // 90 samples near 1us, 10 samples near 1ms: p50 must sit in the
  // 1024-bucket, p99 in the ~1e6 bucket.
  for (int i = 0; i < 90; ++i) h.Record(1100);
  for (int i = 0; i < 10; ++i) h.Record(1'000'000);
  const auto s = h.Snap();
  const double p50 = s.p50();
  EXPECT_GE(p50, 1024.0);
  EXPECT_LT(p50, 2048.0);
  const double p99 = s.p99();
  EXPECT_GE(p99, static_cast<double>(int64_t{1} << 19));
  EXPECT_LT(p99, static_cast<double>(int64_t{1} << 20));
  // Empty histogram: all percentiles are 0.
  EXPECT_EQ(Histogram().Snap().p95(), 0.0);
}

// ---------------------------------------------------------------------------
// Registry: ownership, registration, snapshots, expositions
// ---------------------------------------------------------------------------

TEST(RegistryTest, OwnedMetricsAreFindOrCreate) {
  MetricsRegistry reg;
  auto* a = reg.AddCounter("pxq_test_total");
  auto* b = reg.AddCounter("pxq_test_total");
  EXPECT_EQ(a, b);  // same name -> same counter
  a->Inc(3);
  b->Inc(4);
  EXPECT_EQ(reg.Snapshot().ValueOf("pxq_test_total"), 7);
  EXPECT_EQ(reg.MetricCount(), 1u);
}

TEST(RegistryTest, ExternalCallbackAndGroupRegistration) {
  MetricsRegistry reg;
  obs::Counter owned_by_component;
  owned_by_component.Inc(42);
  reg.RegisterCounter("pxq_component_total", &owned_by_component);
  reg.RegisterCallback("pxq_live_things", [] { return int64_t{7}; });
  reg.RegisterGroup([](std::vector<std::pair<std::string, int64_t>>* out) {
    out->push_back({"pxq_group_a", 1});
    out->push_back({"pxq_group_b", 2});
  });
  obs::Histogram lat;
  lat.Record(1000);
  reg.RegisterHistogram("pxq_lat_ns", &lat);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.ValueOf("pxq_component_total"), 42);
  EXPECT_EQ(snap.ValueOf("pxq_live_things"), 7);
  EXPECT_EQ(snap.ValueOf("pxq_group_a"), 1);
  EXPECT_EQ(snap.ValueOf("pxq_group_b"), 2);
  ASSERT_NE(snap.HistOf("pxq_lat_ns"), nullptr);
  EXPECT_EQ(snap.HistOf("pxq_lat_ns")->count, 1);
  EXPECT_EQ(snap.HistOf("pxq_absent"), nullptr);
  EXPECT_EQ(snap.ValueOf("pxq_absent"), 0);

  // The snapshot is sorted by name (stable iteration for expositions).
  for (size_t i = 1; i < snap.values.size(); ++i) {
    EXPECT_LT(snap.values[i - 1].name, snap.values[i].name);
  }
}

TEST(RegistryTest, PrometheusExposition) {
  MetricsRegistry reg;
  reg.AddCounter("pxq_events_total")->Inc(5);
  reg.AddGauge("pxq_level")->Set(9);
  auto* h = reg.AddHistogram("pxq_wait_ns");
  h->Record(3);
  h->Record(100);
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# TYPE pxq_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("pxq_events_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pxq_level gauge"), std::string::npos);
  EXPECT_NE(text.find("pxq_level 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pxq_wait_ns histogram"), std::string::npos);
  // Cumulative buckets end with the catch-all +Inf and the count/sum.
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("pxq_wait_ns_count 2"), std::string::npos);
  EXPECT_NE(text.find("pxq_wait_ns_sum 103"), std::string::npos);
}

TEST(RegistryTest, ConcurrentRegistrationAndSnapshots) {
  // Registration, increments, and snapshots race freely; TSan (the CI
  // sanitizer leg runs this test) proves the locking discipline.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 2000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, &go, t] {
      while (!go.load()) {
      }
      auto* shared = reg.AddCounter("pxq_shared_total");
      auto* mine =
          reg.AddCounter("pxq_thread_" + std::to_string(t) + "_total");
      auto* hist = reg.AddHistogram("pxq_shared_ns");
      for (int i = 0; i < kIncsPerThread; ++i) {
        shared->Inc();
        mine->Inc();
        hist->Record(i);
        if (i % 512 == 0) (void)reg.Snapshot();
      }
    });
  }
  go.store(true);
  for (auto& w : workers) w.join();

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.ValueOf("pxq_shared_total"), kThreads * kIncsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.ValueOf("pxq_thread_" + std::to_string(t) + "_total"),
              kIncsPerThread);
  }
  ASSERT_NE(snap.HistOf("pxq_shared_ns"), nullptr);
  EXPECT_EQ(snap.HistOf("pxq_shared_ns")->count, kThreads * kIncsPerThread);
}

// ---------------------------------------------------------------------------
// Profiler: sampling, rings, wraparound
// ---------------------------------------------------------------------------

QuerySpan SpanNamed(const std::string& text, int64_t total_ns) {
  QuerySpan s;
  s.text = text;
  s.total_ns = total_ns;
  return s;
}

TEST(ProfilerTest, SamplingDecisions) {
  Profiler::Options off;
  EXPECT_FALSE(Profiler(off).ShouldSample());

  Profiler::Options all;
  all.sample_n = 1;
  Profiler every(all);
  EXPECT_TRUE(every.ShouldSample());
  EXPECT_TRUE(every.ShouldSample());

  Profiler::Options third;
  third.sample_n = 3;
  Profiler nth(third);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) sampled += nth.ShouldSample() ? 1 : 0;
  EXPECT_EQ(sampled, 3);  // exactly every third ticket
}

TEST(ProfilerTest, RingBufferWraparoundNewestFirst) {
  Profiler::Options opts;
  opts.sample_n = 1;
  opts.ring_capacity = 4;
  opts.slow_capacity = 2;
  opts.slow_ns = 1000;  // spans at or above 1000ns are "slow"
  Profiler prof(opts);

  // 7 spans; odd ones are slow. The recent ring keeps the newest 4,
  // the slow ring the newest 2 slow ones — both newest-first.
  for (int i = 0; i < 7; ++i) {
    prof.RecordSpan(SpanNamed("q" + std::to_string(i),
                              i % 2 == 1 ? 5000 : 10));
  }
  EXPECT_EQ(prof.SpanCount(), 7u);

  const auto recent = prof.RecentSpans();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent[0].text, "q6");
  EXPECT_EQ(recent[1].text, "q5");
  EXPECT_EQ(recent[2].text, "q4");
  EXPECT_EQ(recent[3].text, "q3");
  // seq is monotone across the whole run, not reset by wraparound.
  EXPECT_GT(recent[0].seq, recent[1].seq);

  const auto slow = prof.SlowQueries();  // q1 q3 q5 filed; capacity 2
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].text, "q5");
  EXPECT_EQ(slow[1].text, "q3");
}

TEST(ProfilerTest, RegisteredMetricsCountSpans) {
  Profiler::Options opts;
  opts.sample_n = 1;
  opts.slow_ns = 1000;
  Profiler prof(opts);
  MetricsRegistry reg;
  prof.RegisterMetrics(&reg);
  prof.RecordSpan(SpanNamed("fast", 10));
  prof.RecordSpan(SpanNamed("slow", 100000));
  const auto snap = reg.Snapshot();
  EXPECT_EQ(snap.ValueOf("pxq_profile_spans_total"), 2);
  EXPECT_EQ(snap.ValueOf("pxq_slow_queries_total"), 1);
  ASSERT_NE(snap.HistOf("pxq_query_ns"), nullptr);
  EXPECT_EQ(snap.HistOf("pxq_query_ns")->count, 2);
}

// ---------------------------------------------------------------------------
// Database integration: sampled queries, profile-vs-explain, stats
// ---------------------------------------------------------------------------

TEST(DatabaseObsTest, SamplingOffRecordsNothing) {
  auto db = std::move(Database::CreateFromXml(kDoc).value());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->Query("/site/people/person/name").ok());
  }
  EXPECT_EQ(db->profiler().SpanCount(), 0u);
  EXPECT_EQ(db->Metrics().ValueOf("pxq_profile_spans_total"), 0);
}

TEST(DatabaseObsTest, UnsampledQueriesAreCountedAndTimed) {
  auto db = std::move(Database::CreateFromXml(kDoc).value());
  constexpr int kN = 12;
  for (int i = 0; i < kN - 2; ++i) {
    ASSERT_TRUE(db->Query("/site/people/person/name").ok());
  }
  ASSERT_TRUE(db->QueryStrings("/site/people/person/@id").ok());
  EXPECT_FALSE(db->Query("/site/people/person[").ok());  // malformed
  const auto m = db->Metrics();
  ASSERT_NE(m.HistOf("pxq_query_latency_ns"), nullptr);
  EXPECT_EQ(m.HistOf("pxq_query_latency_ns")->count, kN);
  EXPECT_EQ(m.ValueOf("pxq_query_errors_total"), 1);
  EXPECT_GT(m.HistOf("pxq_query_latency_ns")->sum, 0);
  // Sampling stays off: the profiler saw none of them.
  EXPECT_EQ(db->profiler().SpanCount(), 0u);
}

TEST(DatabaseObsTest, SampledQueriesFileSpans) {
  Database::Options opts;
  opts.profile_sample_n = 1;
  auto db = std::move(Database::CreateFromXml(kDoc, opts).value());
  ASSERT_TRUE(db->Query("/site/people/person/name").ok());
  ASSERT_TRUE(db->Query("/site/people/person/name").ok());
  EXPECT_EQ(db->profiler().SpanCount(), 2u);

  const auto spans = db->profiler().RecentSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Newest first: the second execution hit the plan cache.
  EXPECT_TRUE(spans[0].cache_hit);
  EXPECT_EQ(spans[0].compile_ns, 0);
  EXPECT_FALSE(spans[1].cache_hit);
  EXPECT_GT(spans[1].compile_ns, 0);
  for (const auto& s : spans) {
    EXPECT_TRUE(s.ok);
    EXPECT_EQ(s.result_count, 3);
    EXPECT_GE(s.total_ns, 0);
    ASSERT_FALSE(s.ops.empty());
    // Cardinalities chain: each operator's input is the previous
    // operator's output; the last output is the result count.
    for (size_t i = 1; i < s.ops.size(); ++i) {
      EXPECT_EQ(s.ops[i].in, s.ops[i - 1].out);
    }
    EXPECT_EQ(s.ops.back().out, s.result_count);
  }
  EXPECT_EQ(db->Metrics().HistOf("pxq_query_ns")->count, 2);
}

TEST(DatabaseObsTest, ProfileSpansMatchExplainOperatorList) {
  Database::Options opts;
  opts.profile_sample_n = 1;
  auto db = std::move(Database::CreateFromXml(kDoc, opts).value());
  const std::string path = "/site/people/person[@id='p1']/name";

  auto explain = db->Explain(path);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  ASSERT_TRUE(db->Query(path).ok());
  const auto spans = db->profiler().RecentSpans();
  ASSERT_FALSE(spans.empty());
  const QuerySpan& span = spans[0];
  ASSERT_FALSE(span.ops.empty());

  // Every profiled operator appears in explain's rendering, same
  // numbering, same description, same strategy, same cardinality —
  // both render the executor's trace of the same plan.
  for (const auto& op : span.ops) {
    const std::string line = "  " + std::to_string(op.op + 1) + ". " +
                             op.describe + " -> " + op.strategy + ", " +
                             std::to_string(op.out) + " nodes";
    EXPECT_NE(explain.value().find(line), std::string::npos)
        << "missing in explain:\n" << line << "\nexplain said:\n"
        << explain.value();
  }

  // The rendered profile agrees with the span it came from.
  auto profile = db->Profile(path);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_NE(profile.value().find("profile for " + path), std::string::npos);
  for (const auto& op : span.ops) {
    EXPECT_NE(profile.value().find(std::to_string(op.op + 1) + ". " +
                                   op.describe + " -> " + op.strategy),
              std::string::npos)
        << profile.value();
  }
}

TEST(DatabaseObsTest, StatsJsonRoundTripsThroughParser) {
  Database::Options opts;
  opts.profile_sample_n = 1;
  auto db = std::move(Database::CreateFromXml(kDoc, opts).value());
  ASSERT_TRUE(db->Query("/site/people/person/name").ok());
  ASSERT_TRUE(
      db->Update(R"(<xupdate:modifications version="1.0"
          xmlns:xupdate="http://www.xmldb.org/xupdate">
        <xupdate:append select="/site/people">
          <person id="p3"><name>n3</name></person>
        </xupdate:append>
      </xupdate:modifications>)")
          .ok());

  const std::string json = db->StatsJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);

  // Stable top-level keys.
  ASSERT_TRUE(root.fields.count("counters"));
  ASSERT_TRUE(root.fields.count("gauges"));
  ASSERT_TRUE(root.fields.count("histograms"));

  const auto& counters = root.fields.at("counters");
  ASSERT_EQ(counters.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(counters.fields.count("pxq_profile_spans_total"));
  EXPECT_EQ(counters.fields.at("pxq_profile_spans_total").scalar, "1");
  ASSERT_TRUE(counters.fields.count("pxq_index_probes_total"));

  const auto& gauges = root.fields.at("gauges");
  ASSERT_TRUE(gauges.fields.count("pxq_plan_cache_hits"));
  ASSERT_TRUE(gauges.fields.count("pxq_index_qname_keys"));
  ASSERT_TRUE(gauges.fields.count("pxq_index_memo_entries"));
  ASSERT_TRUE(gauges.fields.count("pxq_index_memo_bytes"));
  ASSERT_TRUE(gauges.fields.count("pxq_lock_writer_acquires"));

  const auto& hists = root.fields.at("histograms");
  for (const char* name :
       {"pxq_query_ns", "pxq_commit_window_ns", "pxq_plan_compile_ns",
        "pxq_index_apply_dirty_ns"}) {
    ASSERT_TRUE(hists.fields.count(name)) << name << " absent in " << json;
    const auto& h = hists.fields.at(name);
    ASSERT_EQ(h.kind, JsonValue::Kind::kObject);
    for (const char* k : {"count", "sum", "p50", "p95", "p99"}) {
      EXPECT_TRUE(h.fields.count(k)) << name << " lacks " << k;
    }
  }
  // The commit above went through the exclusive window and ApplyDirty.
  EXPECT_GE(std::stoll(
                hists.fields.at("pxq_commit_window_ns").fields.at("count")
                    .scalar),
            1);
  EXPECT_GE(std::stoll(
                hists.fields.at("pxq_index_apply_dirty_ns").fields.at("count")
                    .scalar),
            1);
}

TEST(DatabaseObsTest, CommitAndLockInstrumentsPopulate) {
  char tmpl[] = "/tmp/pxq_obs_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  Database::Options opts;
  opts.data_dir = tmpl;
  auto db = std::move(Database::CreateFromXml(kDoc, opts).value());
  ASSERT_TRUE(
      db->Update(R"(<xupdate:modifications version="1.0"
          xmlns:xupdate="http://www.xmldb.org/xupdate">
        <xupdate:append select="/site/people">
          <person id="p4"><name>n4</name></person>
        </xupdate:append>
      </xupdate:modifications>)")
          .ok());
  const MetricsSnapshot snap = db->Metrics();
  ASSERT_NE(snap.HistOf("pxq_commit_window_ns"), nullptr);
  EXPECT_GE(snap.HistOf("pxq_commit_window_ns")->count, 1);
  ASSERT_NE(snap.HistOf("pxq_wal_append_ns"), nullptr);
  EXPECT_GE(snap.HistOf("pxq_wal_append_ns")->count, 1);
  EXPECT_GT(snap.ValueOf("pxq_wal_appended_bytes_total"), 0);
  EXPECT_GE(snap.ValueOf("pxq_lock_writer_acquires"), 1);
  // Wait histograms exist even when uncontended (count may be 0).
  EXPECT_NE(snap.HistOf("pxq_lock_reader_wait_ns"), nullptr);
  EXPECT_NE(snap.HistOf("pxq_lock_writer_wait_ns"), nullptr);
  // Prometheus exposition renders the same catalog.
  const std::string prom = db->MetricsText();
  EXPECT_NE(prom.find("# TYPE pxq_commit_window_ns histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("pxq_wal_appended_bytes_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// IndexStats snapshot coherence under a concurrent reader storm — the
// regression test for the non-atomic merge of index + plan-cache stats.
// ---------------------------------------------------------------------------

TEST(DatabaseObsTest, IndexStatsCoherentUnderReaderStorm) {
  auto db = std::move(Database::CreateFromXml(kDoc).value());
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> issued{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&db, &stop, &issued, t] {
      const char* queries[] = {
          "/site/people/person/name",
          "/site/regions/zone/area/item/price",
          "/site/people/person[@id='p1']/name",
      };
      while (!stop.load()) {
        ASSERT_TRUE(db->Query(queries[t % 3]).ok());
        issued.fetch_add(1);
      }
    });
  }

  // Sample stats mid-storm: every snapshot must be internally sane
  // even while counters advance underneath it.
  int64_t last_plan_lookups = 0;
  int64_t last_estimator_probes = 0;
  int64_t first_stat_keys = -1;
  int64_t first_hist_buckets = -1;
  for (int round = 0; round < 200; ++round) {
    const index::IndexStats s = db->IndexStats();
    // Cardinality-stat surfaces: the structural counts are derived
    // from the published snapshot, so with no writer in the storm
    // they are frozen — every sample must agree with the first.
    EXPECT_GT(s.stat_keys, 0);
    if (first_stat_keys < 0) {
      first_stat_keys = s.stat_keys;
      first_hist_buckets = s.histogram_buckets;
    }
    EXPECT_EQ(s.stat_keys, first_stat_keys);
    EXPECT_EQ(s.histogram_buckets, first_hist_buckets);
    // Estimator probes are a monotone counter (compile-time lookups).
    EXPECT_GE(s.estimator_probes, last_estimator_probes);
    last_estimator_probes = s.estimator_probes;
    // Derived hit counts stay within [0, probes] — the decline-before-
    // probe read order guarantee.
    EXPECT_GE(s.probe_hits, 0);
    EXPECT_LE(s.probe_hits, s.probes);
    EXPECT_GE(s.path_hits, 0);
    EXPECT_LE(s.path_hits, s.path_probes);
    // The plan-cache triple is one mutex-guarded copy: hits + misses
    // is exactly the completed lookups, hence monotone across samples.
    const int64_t lookups = s.plan_hits + s.plan_misses;
    EXPECT_GE(lookups, last_plan_lookups);
    last_plan_lookups = lookups;
  }
  stop.store(true);
  for (auto& r : readers) r.join();

  // Quiesced: completed lookups == queries issued. Each reader issues
  // one text and nothing evicts, so each reader misses at most once:
  // readers sharing a text can both miss it, since concurrent compiles
  // of one text race and the last insert wins (PlanCache::Insert).
  const index::IndexStats s = db->IndexStats();
  EXPECT_EQ(s.plan_hits + s.plan_misses, issued.load());
  EXPECT_LE(s.plan_misses, kReaders);
}

}  // namespace
}  // namespace pxq
