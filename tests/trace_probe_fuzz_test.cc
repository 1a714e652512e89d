// Differential fuzz of the trace store's overlap probes: FindProducing,
// FindConsuming and FindXfersInto must return exactly the rows whose
// index *overlaps* the query index (one is a prefix of the other),
// matching a brute-force scan — for random traces and random query
// indices of every length.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>

#include "common/random.h"
#include "provenance/trace_store.h"

namespace provlin::provenance {
namespace {

bool Overlaps(const Index& a, const Index& b) {
  return a.IsPrefixOf(b) || b.IsPrefixOf(a);
}

Index RandomIndex(Random* rng, size_t max_len, int32_t max_component) {
  std::vector<int32_t> parts;
  size_t len = rng->Uniform(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    parts.push_back(static_cast<int32_t>(rng->Uniform(
        static_cast<uint64_t>(max_component))));
  }
  return Index(std::move(parts));
}

class TraceProbeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceProbeFuzzTest, OverlapProbesMatchBruteForce) {
  Random rng(GetParam());
  storage::Database db;
  auto store = *TraceStore::Open(&db);

  // Random xform rows across 2 runs, 3 processors, 2 ports each, with
  // indices up to depth 3 over a tiny component domain (maximizing
  // prefix relationships).
  struct RowFact {
    std::string run, proc, in_port, out_port;
    Index in_index, out_index;
  };
  std::vector<RowFact> facts;
  for (int i = 0; i < 150; ++i) {
    RowFact f;
    f.run = "run" + std::to_string(rng.Uniform(2));
    f.proc = "P" + std::to_string(rng.Uniform(3));
    f.in_port = "in" + std::to_string(rng.Uniform(2));
    f.out_port = "out" + std::to_string(rng.Uniform(2));
    f.in_index = RandomIndex(&rng, 3, 3);
    f.out_index = RandomIndex(&rng, 3, 3);
    XformRecord rec;
    rec.run = store.Intern(f.run);
    rec.event_id = i;
    rec.processor = store.Intern(f.proc);
    rec.has_in = true;
    rec.in_port = store.Intern(f.in_port);
    rec.in_index = f.in_index;
    rec.in_value = 0;
    rec.has_out = true;
    rec.out_port = store.Intern(f.out_port);
    rec.out_index = f.out_index;
    rec.out_value = 0;
    ASSERT_TRUE(store.InsertXform(rec).ok());
    facts.push_back(std::move(f));
  }

  for (int qn = 0; qn < 120; ++qn) {
    std::string run = "run" + std::to_string(rng.Uniform(2));
    std::string proc = "P" + std::to_string(rng.Uniform(3));
    Index q = RandomIndex(&rng, 4, 4);

    {
      std::string port = "out" + std::to_string(rng.Uniform(2));
      auto rows = store.FindProducing(run, proc, port, q);
      ASSERT_TRUE(rows.ok());
      size_t expected = 0;
      for (const RowFact& f : facts) {
        if (f.run == run && f.proc == proc && f.out_port == port &&
            Overlaps(f.out_index, q)) {
          ++expected;
        }
      }
      ASSERT_EQ(rows->size(), expected)
          << "FindProducing " << proc << ":" << port << q.ToString()
          << " seed " << GetParam();
      for (const XformRecord& r : *rows) {
        EXPECT_TRUE(Overlaps(r.out_index, q)) << r.out_index.ToString();
      }
    }
    {
      std::string port = "in" + std::to_string(rng.Uniform(2));
      auto rows = store.FindConsuming(run, proc, port, q);
      ASSERT_TRUE(rows.ok());
      size_t expected = 0;
      for (const RowFact& f : facts) {
        if (f.run == run && f.proc == proc && f.in_port == port &&
            Overlaps(f.in_index, q)) {
          ++expected;
        }
      }
      ASSERT_EQ(rows->size(), expected)
          << "FindConsuming " << proc << ":" << port << q.ToString();
    }
  }
}

TEST_P(TraceProbeFuzzTest, XferOverlapProbesMatchBruteForce) {
  Random rng(GetParam() * 977 + 5);
  storage::Database db;
  auto store = *TraceStore::Open(&db);

  struct XferFact {
    std::string dst_proc, dst_port;
    Index dst_index;
  };
  std::vector<XferFact> facts;
  for (int i = 0; i < 100; ++i) {
    XferFact f;
    f.dst_proc = "C" + std::to_string(rng.Uniform(3));
    f.dst_port = "x";
    f.dst_index = RandomIndex(&rng, 3, 3);
    XferRecord rec;
    rec.run = store.Intern("r0");
    rec.src_proc = store.Intern("S");
    rec.src_port = store.Intern("y");
    rec.src_index = f.dst_index;
    rec.dst_proc = store.Intern(f.dst_proc);
    rec.dst_port = store.Intern(f.dst_port);
    rec.dst_index = f.dst_index;
    // Distinct per row: the probe layer dedups *identical* rows, which
    // never occur in real traces (value ids differ).
    rec.value_id = i;
    ASSERT_TRUE(store.InsertXfer(rec).ok());
    facts.push_back(std::move(f));
  }
  for (int qn = 0; qn < 60; ++qn) {
    std::string proc = "C" + std::to_string(rng.Uniform(3));
    Index q = RandomIndex(&rng, 4, 4);
    auto rows = store.FindXfersInto("r0", proc, "x", q);
    ASSERT_TRUE(rows.ok());
    size_t expected = 0;
    for (const XferFact& f : facts) {
      if (f.dst_proc == proc && Overlaps(f.dst_index, q)) ++expected;
    }
    ASSERT_EQ(rows->size(), expected) << proc << q.ToString();
  }
}

// The batch finders answer a vector of port probes in one storage batch;
// slot i must carry exactly the rows a brute-force overlap filter over
// the inserted records selects (as a multiset), and exactly what the
// corresponding single-probe call (a one-element batch) returns, in the
// same order — with and without an active probe memo, and with
// duplicate probes in the batch.
TEST_P(TraceProbeFuzzTest, BatchFindersMatchSingleProbes) {
  Random rng(GetParam() * 131 + 17);
  storage::Database db;
  auto store = *TraceStore::Open(&db);

  std::vector<XformRecord> xforms;
  std::vector<XferRecord> xfers;
  for (int i = 0; i < 150; ++i) {
    XformRecord rec;
    rec.run = store.Intern("run" + std::to_string(rng.Uniform(2)));
    rec.event_id = i;
    rec.processor = store.Intern("P" + std::to_string(rng.Uniform(3)));
    rec.has_in = true;
    rec.in_port = store.Intern("in" + std::to_string(rng.Uniform(2)));
    rec.in_index = RandomIndex(&rng, 3, 3);
    rec.in_value = static_cast<int64_t>(i);
    rec.has_out = true;
    rec.out_port = store.Intern("out" + std::to_string(rng.Uniform(2)));
    rec.out_index = RandomIndex(&rng, 3, 3);
    rec.out_value = static_cast<int64_t>(i);
    ASSERT_TRUE(store.InsertXform(rec).ok());
    xforms.push_back(rec);
  }
  for (int i = 0; i < 100; ++i) {
    XferRecord rec;
    rec.run = store.Intern("run" + std::to_string(rng.Uniform(2)));
    rec.src_proc = store.Intern("P" + std::to_string(rng.Uniform(3)));
    rec.src_port = store.Intern("out" + std::to_string(rng.Uniform(2)));
    rec.src_index = RandomIndex(&rng, 3, 3);
    rec.dst_proc = store.Intern("P" + std::to_string(rng.Uniform(3)));
    rec.dst_port = store.Intern("in" + std::to_string(rng.Uniform(2)));
    rec.dst_index = RandomIndex(&rng, 3, 3);
    rec.value_id = i;
    ASSERT_TRUE(store.InsertXfer(rec).ok());
    xfers.push_back(rec);
  }

  auto xform_key = [](const XformRecord& r) {
    return std::make_tuple(r.run, r.event_id, r.processor, r.has_in, r.in_port,
                           r.in_index, r.in_value, r.has_out, r.out_port,
                           r.out_index, r.out_value);
  };
  auto xfer_key = [](const XferRecord& r) {
    return std::make_tuple(r.run, r.src_proc, r.src_port, r.src_index,
                           r.dst_proc, r.dst_port, r.dst_index, r.value_id);
  };

  // Brute-force reference, independent of the probe path: the inserted
  // records of the probe's run whose (processor, port) matches on the
  // probed side and whose index overlaps, compared as sorted key
  // multisets (record values are distinct, so no row dedups away).
  auto sorted_keys = [](const auto& rows, const auto& key) {
    std::vector<decltype(key(rows.front()))> keys;
    for (const auto& r : rows) keys.push_back(key(r));
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  auto expect_xforms = [&](const PortProbe& p, bool out) {
    std::vector<XformRecord> rows;
    for (const XformRecord& r : xforms) {
      if (r.run == p.run && r.processor == p.processor &&
          (out ? r.out_port : r.in_port) == p.port &&
          Overlaps(out ? r.out_index : r.in_index, p.index)) {
        rows.push_back(r);
      }
    }
    return rows;
  };
  auto expect_xfers = [&](const PortProbe& p, bool from) {
    std::vector<XferRecord> rows;
    for (const XferRecord& r : xfers) {
      if (r.run == p.run && (from ? r.src_proc : r.dst_proc) == p.processor &&
          (from ? r.src_port : r.dst_port) == p.port &&
          Overlaps(from ? r.src_index : r.dst_index, p.index)) {
        rows.push_back(r);
      }
    }
    return rows;
  };
  auto check_brute_force =
      [&](const std::vector<std::vector<XformRecord>>& got,
          const std::vector<std::vector<XferRecord>>& xgot,
          const std::vector<PortProbe>& probes, bool out_side) {
        for (size_t i = 0; i < probes.size(); ++i) {
          EXPECT_EQ(sorted_keys(got[i], xform_key),
                    sorted_keys(expect_xforms(probes[i], out_side), xform_key))
              << "xform slot " << i << " out_side=" << out_side;
          EXPECT_EQ(sorted_keys(xgot[i], xfer_key),
                    sorted_keys(expect_xfers(probes[i], out_side), xfer_key))
              << "xfer slot " << i << " out_side=" << out_side;
        }
      };

  ProbeMemo memo;
  for (int round = 0; round < 20; ++round) {
    common::SymbolId run =
        store.Intern("run" + std::to_string(rng.Uniform(2)));
    std::vector<PortProbe> probes(1 + rng.Uniform(12));
    bool out_side = rng.Bernoulli(0.5);
    for (PortProbe& p : probes) {
      if (!probes.empty() && rng.Bernoulli(0.2) && &p != &probes.front()) {
        p = probes[rng.Uniform(static_cast<uint64_t>(&p - probes.data()))];
        continue;  // deliberate duplicate of an earlier probe
      }
      p.run = run;
      p.processor = store.Intern("P" + std::to_string(rng.Uniform(3)));
      p.port = store.Intern((out_side ? "out" : "in") +
                            std::to_string(rng.Uniform(2)));
      p.index = RandomIndex(&rng, 4, 4);
    }
    // Half the rounds exercise the batch under a shared probe memo.
    std::optional<ProbeMemoScope> scope;
    if (round % 2 == 1) scope.emplace(&memo);

    if (out_side) {
      auto batch = store.FindProducingBatch(probes);
      auto xbatch = store.FindXfersFromBatch(probes);
      ASSERT_TRUE(batch.ok());
      ASSERT_TRUE(xbatch.ok());
      ASSERT_EQ(batch->size(), probes.size());
      ASSERT_EQ(xbatch->size(), probes.size());
      check_brute_force(*batch, *xbatch, probes, /*out_side=*/true);
      for (size_t i = 0; i < probes.size(); ++i) {
        auto single =
            store.FindProducing(run, probes[i].processor, probes[i].port,
                                probes[i].index);
        ASSERT_TRUE(single.ok());
        ASSERT_EQ((*batch)[i].size(), single->size()) << "probe " << i;
        for (size_t r = 0; r < single->size(); ++r) {
          EXPECT_EQ(xform_key((*batch)[i][r]), xform_key((*single)[r]));
        }
        auto xsingle = store.FindXfersFrom(run, probes[i].processor,
                                           probes[i].port, probes[i].index);
        ASSERT_TRUE(xsingle.ok());
        ASSERT_EQ((*xbatch)[i].size(), xsingle->size()) << "probe " << i;
        for (size_t r = 0; r < xsingle->size(); ++r) {
          EXPECT_EQ(xfer_key((*xbatch)[i][r]), xfer_key((*xsingle)[r]));
        }
      }
    } else {
      auto batch = store.FindConsumingBatch(probes);
      auto xbatch = store.FindXfersIntoBatch(probes);
      ASSERT_TRUE(batch.ok());
      ASSERT_TRUE(xbatch.ok());
      ASSERT_EQ(batch->size(), probes.size());
      ASSERT_EQ(xbatch->size(), probes.size());
      check_brute_force(*batch, *xbatch, probes, /*out_side=*/false);
      for (size_t i = 0; i < probes.size(); ++i) {
        auto single =
            store.FindConsuming(run, probes[i].processor, probes[i].port,
                                probes[i].index);
        ASSERT_TRUE(single.ok());
        ASSERT_EQ((*batch)[i].size(), single->size()) << "probe " << i;
        for (size_t r = 0; r < single->size(); ++r) {
          EXPECT_EQ(xform_key((*batch)[i][r]), xform_key((*single)[r]));
        }
        auto xsingle = store.FindXfersInto(run, probes[i].processor,
                                           probes[i].port, probes[i].index);
        ASSERT_TRUE(xsingle.ok());
        ASSERT_EQ((*xbatch)[i].size(), xsingle->size()) << "probe " << i;
        for (size_t r = 0; r < xsingle->size(); ++r) {
          EXPECT_EQ(xfer_key((*xbatch)[i][r]), xfer_key((*xsingle)[r]));
        }
      }
    }
  }
  // The memoized rounds replayed plenty of repeated probes; the memo must
  // have been consulted (hits are batch-composition dependent, so only
  // the lookup count is asserted).
  EXPECT_GT(memo.lookups(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProbeFuzzTest,
                         ::testing::Range<uint64_t>(700, 712));

}  // namespace
}  // namespace provlin::provenance
