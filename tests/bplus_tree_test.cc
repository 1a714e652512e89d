#include "storage/bplus_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "common/random.h"

namespace provlin::storage {
namespace {

Key K(int64_t v) { return Key{Datum(v)}; }
Key K2(int64_t a, const std::string& b) { return Key{Datum(a), Datum(b)}; }

TEST(BPlusTree, EmptyTree) {
  BPlusTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.Lookup(K(1)).empty());
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTree, InsertAndLookup) {
  BPlusTree tree;
  tree.Insert(K(5), 50);
  tree.Insert(K(3), 30);
  tree.Insert(K(7), 70);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.Lookup(K(3)), (std::vector<uint64_t>{30}));
  EXPECT_EQ(tree.Lookup(K(5)), (std::vector<uint64_t>{50}));
  EXPECT_TRUE(tree.Lookup(K(4)).empty());
}

TEST(BPlusTree, DuplicateKeysKeepAllRids) {
  BPlusTree tree;
  tree.Insert(K(1), 10);
  tree.Insert(K(1), 11);
  tree.Insert(K(1), 12);
  EXPECT_EQ(tree.Lookup(K(1)), (std::vector<uint64_t>{10, 11, 12}));
}

TEST(BPlusTree, DuplicateEntryIgnored) {
  BPlusTree tree;
  tree.Insert(K(1), 10);
  tree.Insert(K(1), 10);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTree, EraseRemovesOnlyThatEntry) {
  BPlusTree tree;
  tree.Insert(K(1), 10);
  tree.Insert(K(1), 11);
  EXPECT_TRUE(tree.Erase(K(1), 10));
  EXPECT_EQ(tree.Lookup(K(1)), (std::vector<uint64_t>{11}));
  EXPECT_FALSE(tree.Erase(K(1), 10));  // already gone
  EXPECT_FALSE(tree.Erase(K(9), 1));   // never existed
}

TEST(BPlusTree, SplitsGrowHeight) {
  BPlusTree tree;
  for (int64_t i = 0; i < 1000; ++i) tree.Insert(K(i), static_cast<uint64_t>(i));
  EXPECT_GT(tree.height(), 1);
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(tree.Lookup(K(i)).size(), 1u) << i;
  }
}

TEST(BPlusTree, IteratorEnumeratesInOrder) {
  BPlusTree tree;
  for (int64_t i = 99; i >= 0; --i) tree.Insert(K(i), static_cast<uint64_t>(i));
  int64_t expect = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.key()[0].AsInt(), expect);
    ++expect;
  }
  EXPECT_EQ(expect, 100);
}

TEST(BPlusTree, SeekFindsLowerBound) {
  BPlusTree tree;
  for (int64_t i = 0; i < 100; i += 2) tree.Insert(K(i), static_cast<uint64_t>(i));
  auto it = tree.Seek(K(31));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 32);
  it = tree.Seek(K(98));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 98);
  EXPECT_FALSE(tree.Seek(K(99)).Valid());
}

TEST(BPlusTree, PrefixLookupOnCompositeKeys) {
  BPlusTree tree;
  uint64_t rid = 0;
  for (int64_t g = 0; g < 5; ++g) {
    for (int m = 0; m < 7; ++m) {
      tree.Insert(K2(g, "m" + std::to_string(m)), rid++);
    }
  }
  EXPECT_EQ(tree.PrefixLookup({Datum(int64_t{2})}).size(), 7u);
  EXPECT_EQ(tree.PrefixLookup({}).size(), 35u);
  EXPECT_TRUE(tree.PrefixLookup({Datum(int64_t{9})}).empty());
  EXPECT_EQ(tree.Lookup(K2(2, "m3")).size(), 1u);
}

TEST(BPlusTree, RangeLookupInclusiveBounds) {
  BPlusTree tree;
  for (int64_t i = 0; i < 50; ++i) tree.Insert(K(i), static_cast<uint64_t>(i));
  auto rids = tree.RangeLookup(K(10), K(20));
  EXPECT_EQ(rids.size(), 11u);
  EXPECT_EQ(rids.front(), 10u);
  EXPECT_EQ(rids.back(), 20u);
}

TEST(BPlusTree, StringPrefixRangeScan) {
  // The pattern the trace store uses for "all finer indices below q".
  BPlusTree tree;
  tree.Insert({Datum("00001")}, 1);
  tree.Insert({Datum("00001.00000")}, 2);
  tree.Insert({Datum("00001.00001")}, 3);
  tree.Insert({Datum("00002")}, 4);
  auto rids = tree.RangeLookup({Datum("00001.")},
                               {Datum(std::string("00001.") + "\xff\xff")});
  EXPECT_EQ(rids, (std::vector<uint64_t>{2, 3}));
}

TEST(BPlusTree, DeleteDownToEmptyShrinksRoot) {
  BPlusTree tree;
  for (int64_t i = 0; i < 500; ++i) tree.Insert(K(i), static_cast<uint64_t>(i));
  EXPECT_GT(tree.height(), 1);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Erase(K(i), static_cast<uint64_t>(i))) << i;
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// MultiSeek: batched probes must answer exactly like repeated single
// lookups, for fewer descents.
// ---------------------------------------------------------------------------

using Probe = BPlusTree::Probe;

TEST(BPlusTreeMultiSeek, EmptyBatchCostsNothing) {
  BPlusTree tree;
  for (int64_t i = 0; i < 100; ++i) tree.Insert(K(i), static_cast<uint64_t>(i));
  BPlusTree::MultiSeekResult r = tree.MultiSeek({});
  EXPECT_EQ(r.num_probes(), 0u);
  EXPECT_TRUE(r.rids.empty());
  EXPECT_EQ(r.descents, 0u);
}

TEST(BPlusTreeMultiSeek, SortedPointProbesShareOneDescent) {
  BPlusTree tree;
  for (int64_t i = 0; i < 200; ++i) tree.Insert(K(i), static_cast<uint64_t>(i));
  // Consecutive keys live on the same or adjacent leaves, so the whole
  // sorted batch should cost exactly one root-to-leaf descent.
  std::vector<Probe> probes;
  for (int64_t i = 10; i < 20; ++i) {
    probes.push_back({Probe::Kind::kPoint, K(i), {}});
  }
  BPlusTree::MultiSeekResult r = tree.MultiSeek(probes);
  ASSERT_EQ(r.num_probes(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(r.MatchesOf(i), tree.Lookup(probes[i].lo)) << i;
  }
  EXPECT_EQ(r.descents, 1u);
}

TEST(BPlusTreeMultiSeek, DuplicateProbesReuseTheAnchor) {
  BPlusTree tree;
  for (int64_t i = 0; i < 500; ++i) tree.Insert(K(i), static_cast<uint64_t>(i));
  std::vector<Probe> probes(5, Probe{Probe::Kind::kPoint, K(123), {}});
  BPlusTree::MultiSeekResult r = tree.MultiSeek(probes);
  for (size_t i = 0; i < r.num_probes(); ++i) {
    EXPECT_EQ(r.MatchesOf(i), (std::vector<uint64_t>{123}));
  }
  EXPECT_EQ(r.descents, 1u);
}

TEST(BPlusTreeMultiSeek, UnsortedProbesStayCorrect) {
  BPlusTree tree;
  for (int64_t i = 0; i < 300; ++i) tree.Insert(K(i), static_cast<uint64_t>(i));
  std::vector<Probe> probes{{Probe::Kind::kPoint, K(250), {}},
                            {Probe::Kind::kPoint, K(3), {}},
                            {Probe::Kind::kPoint, K(170), {}}};
  BPlusTree::MultiSeekResult r = tree.MultiSeek(probes);
  EXPECT_EQ(r.MatchesOf(0), tree.Lookup(K(250)));
  EXPECT_EQ(r.MatchesOf(1), tree.Lookup(K(3)));
  EXPECT_EQ(r.MatchesOf(2), tree.Lookup(K(170)));
}

TEST(BPlusTreeMultiSeek, ProbesPastTheEndPinToTheTail) {
  BPlusTree tree;
  for (int64_t i = 0; i < 64; ++i) tree.Insert(K(i), static_cast<uint64_t>(i));
  std::vector<Probe> probes{{Probe::Kind::kPoint, K(1000), {}},
                            {Probe::Kind::kPoint, K(2000), {}},
                            {Probe::Kind::kPoint, K(3000), {}}};
  BPlusTree::MultiSeekResult r = tree.MultiSeek(probes);
  EXPECT_TRUE(r.rids.empty());
  // Once the batch walks off the end of the chain, later (larger) probes
  // must not pay fresh descents.
  EXPECT_EQ(r.descents, 1u);
}

class MultiSeekFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiSeekFuzz, MatchesRepeatedSingleLookups) {
  Random rng(GetParam());
  BPlusTree tree;
  // Clustered keys with duplicates so probes hit multi-rid runs, empty
  // gaps, and leaf boundaries.
  size_t n = 500 + rng.Uniform(2000);
  for (size_t i = 0; i < n; ++i) {
    tree.Insert(K(static_cast<int64_t>(rng.Uniform(400))), rng.Uniform(6));
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());

  for (int round = 0; round < 10; ++round) {
    size_t batch = rng.Uniform(40);  // includes empty batches
    std::vector<Probe> probes;
    probes.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      int64_t a = static_cast<int64_t>(rng.Uniform(450));
      switch (rng.Uniform(3)) {
        case 0:
          probes.push_back({Probe::Kind::kPoint, K(a), {}});
          break;
        case 1:
          // Composite prefix: first component only.
          probes.push_back({Probe::Kind::kPrefix, K(a), {}});
          break;
        default: {
          int64_t b = a + static_cast<int64_t>(rng.Uniform(30));
          probes.push_back({Probe::Kind::kRange, K(a), K(b)});
          break;
        }
      }
    }
    // Sort by lower bound (the production path always does); ties and
    // overlapping ranges stay in the batch.
    std::stable_sort(probes.begin(), probes.end(),
                     [](const Probe& x, const Probe& y) {
                       return CompareKeys(x.lo, y.lo) < 0;
                     });
    BPlusTree::MultiSeekResult r = tree.MultiSeek(probes);
    ASSERT_EQ(r.num_probes(), probes.size());
    EXPECT_LE(r.descents, probes.size());
    for (size_t i = 0; i < probes.size(); ++i) {
      std::vector<uint64_t> expect;
      switch (probes[i].kind) {
        case Probe::Kind::kPoint:
          expect = tree.Lookup(probes[i].lo);
          break;
        case Probe::Kind::kPrefix:
          expect = tree.PrefixLookup(probes[i].lo);
          break;
        case Probe::Kind::kRange:
          expect = tree.RangeLookup(probes[i].lo, probes[i].hi);
          break;
      }
      ASSERT_EQ(r.MatchesOf(i), expect)
          << "seed " << GetParam() << " round " << round << " probe " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSeekFuzz,
                         ::testing::Values(7, 11, 19, 23, 42, 77, 101, 2024));

// ---------------------------------------------------------------------------
// ErasePrefix: a key-range erase must leave exactly the tree a reference
// set describes, with every structural invariant intact, wherever the
// range falls relative to leaf boundaries.
// ---------------------------------------------------------------------------

/// (leading key, second key, rid): the reference holds one element per
/// tree entry, so user keys repeat and the rid tells them apart.
using RefEntry = std::tuple<int64_t, int64_t, uint64_t>;

Key K2i(int64_t a, int64_t b) { return Key{Datum(a), Datum(b)}; }

void RefInsert(BPlusTree* tree, std::set<RefEntry>* ref, int64_t a, int64_t b,
               uint64_t rid) {
  tree->Insert(K2i(a, b), rid);
  ref->insert({a, b, rid});
}

/// Erases leading key `a` from both; returns the tree's count after
/// checking it against the reference's.
size_t RefErasePrefix(BPlusTree* tree, std::set<RefEntry>* ref, int64_t a) {
  size_t expected = 0;
  for (auto it = ref->lower_bound({a, std::numeric_limits<int64_t>::min(), 0});
       it != ref->end() && std::get<0>(*it) == a;) {
    it = ref->erase(it);
    ++expected;
  }
  size_t removed = tree->ErasePrefix(K(a));
  EXPECT_EQ(removed, expected) << "prefix " << a;
  return removed;
}

::testing::AssertionResult SameContents(const BPlusTree& tree,
                                        const std::set<RefEntry>& ref) {
  Status st = tree.CheckInvariants();
  if (!st.ok()) return ::testing::AssertionFailure() << st.ToString();
  if (tree.size() != ref.size()) {
    return ::testing::AssertionFailure()
           << "size " << tree.size() << " != reference " << ref.size();
  }
  auto it = tree.Begin();
  for (const auto& [a, b, rid] : ref) {
    if (!it.Valid() || it.key()[0].AsInt() != a || it.key()[1].AsInt() != b ||
        it.rid() != rid) {
      return ::testing::AssertionFailure()
             << "entry (" << a << "," << b << "," << rid << ") mismatched";
    }
    it.Next();
  }
  if (it.Valid()) return ::testing::AssertionFailure() << "extra entries";
  return ::testing::AssertionSuccess();
}

TEST(BPlusTreeErasePrefix, AbsentPrefixRemovesNothing) {
  BPlusTree tree;
  std::set<RefEntry> ref;
  for (int64_t a = 0; a < 40; a += 2) {
    for (int64_t b = 0; b < 10; ++b) RefInsert(&tree, &ref, a, b, 0);
  }
  for (int64_t a : {-5, 1, 17, 39, 100}) {
    EXPECT_EQ(RefErasePrefix(&tree, &ref, a), 0u);
    ASSERT_TRUE(SameContents(tree, ref)) << "prefix " << a;
  }
  // Longer than any key, and a two-column prefix that is absent.
  EXPECT_EQ(tree.ErasePrefix(K2i(2, 99)), 0u);
  ASSERT_TRUE(SameContents(tree, ref));
}

TEST(BPlusTreeErasePrefix, InsideOneLeaf) {
  BPlusTree tree;
  std::set<RefEntry> ref;
  for (int64_t a = 0; a < 200; ++a) {
    for (int64_t b = 0; b < 3; ++b) RefInsert(&tree, &ref, a, b, 1);
  }
  ASSERT_GT(tree.height(), 1);
  for (int64_t a : {0, 57, 101, 199}) {
    EXPECT_EQ(RefErasePrefix(&tree, &ref, a), 3u);
    ASSERT_TRUE(SameContents(tree, ref)) << "prefix " << a;
  }
  // A two-column prefix trims a single entry.
  EXPECT_EQ(tree.ErasePrefix(K2i(58, 1)), 1u);
  ref.erase({58, 1, 1});
  ASSERT_TRUE(SameContents(tree, ref));
}

TEST(BPlusTreeErasePrefix, RangesOnLeafBoundaries) {
  // Ascending inserts split every full leaf 32 | 33 and keep appending
  // to the right half, so all leaves but the last hold exactly 32
  // entries. With 16 entries per leading key, an even key starts on a
  // leaf boundary, an odd key ends on one, and each pair fills a leaf.
  BPlusTree tree;
  std::set<RefEntry> ref;
  for (int64_t a = 0; a < 40; ++a) {
    for (int64_t b = 0; b < 16; ++b) RefInsert(&tree, &ref, a, b, 0);
  }
  for (int64_t a : {4, 13, 20, 21, 30, 31, 32, 39}) {
    EXPECT_EQ(RefErasePrefix(&tree, &ref, a), 16u);
    ASSERT_TRUE(SameContents(tree, ref)) << "prefix " << a;
  }
}

TEST(BPlusTreeErasePrefix, SpanningManyLeaves) {
  BPlusTree tree;
  std::set<RefEntry> ref;
  // Interleave insertion order so the big key's entries arrive mixed
  // with its neighbours' and the leaves hold uneven shares.
  for (int64_t b = 0; b < 2000; ++b) {
    RefInsert(&tree, &ref, 5, b, 0);
    if (b % 4 == 0) RefInsert(&tree, &ref, 4, b, 0);
    if (b % 5 == 0) RefInsert(&tree, &ref, 6, b, 0);
  }
  ASSERT_GE(tree.height(), 3);
  EXPECT_EQ(RefErasePrefix(&tree, &ref, 5), 2000u);
  ASSERT_TRUE(SameContents(tree, ref));
  EXPECT_EQ(RefErasePrefix(&tree, &ref, 4), 500u);
  ASSERT_TRUE(SameContents(tree, ref));
}

TEST(BPlusTreeErasePrefix, WholeTreeCollapsesRootToALeaf) {
  BPlusTree tree;
  std::set<RefEntry> ref;
  for (int64_t b = 0; b < 5000; ++b) RefInsert(&tree, &ref, 7, b, 0);
  ASSERT_GE(tree.height(), 3);
  EXPECT_EQ(RefErasePrefix(&tree, &ref, 7), 5000u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.empty());
  ASSERT_TRUE(SameContents(tree, ref));

  // The empty prefix matches every key.
  for (int64_t a = 0; a < 30; ++a) {
    for (int64_t b = 0; b < 30; ++b) tree.Insert(K2i(a, b), 0);
  }
  EXPECT_EQ(tree.ErasePrefix(Key{}), 900u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  // The emptied tree is reusable.
  RefInsert(&tree, &ref, 1, 1, 1);
  ASSERT_TRUE(SameContents(tree, ref));
}

class BPlusTreeErasePrefixRandomized
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeErasePrefixRandomized, MatchesReferenceInterleaved) {
  Random rng(GetParam());
  BPlusTree tree;
  std::set<RefEntry> ref;
  for (int op = 0; op < 3000; ++op) {
    const auto a = static_cast<int64_t>(rng.Uniform(60));
    const double pick = rng.NextDouble();
    if (pick < 0.5) {
      RefInsert(&tree, &ref, a, static_cast<int64_t>(rng.Uniform(40)),
                rng.Uniform(3));
    } else if (pick < 0.53) {
      // A burst under one leading key, so later erases span leaves.
      const auto n = static_cast<int64_t>(rng.Uniform(400));
      for (int64_t b = 0; b < n; ++b) RefInsert(&tree, &ref, a, b, 7);
    } else if (pick < 0.9) {
      const auto b = static_cast<int64_t>(rng.Uniform(40));
      const uint64_t rid = rng.Uniform(3);
      const bool expected = ref.erase({a, b, rid}) > 0;
      ASSERT_EQ(tree.Erase(K2i(a, b), rid), expected) << "op " << op;
    } else {
      RefErasePrefix(&tree, &ref, a);
      ASSERT_TRUE(SameContents(tree, ref)) << "op " << op;
    }
  }
  ASSERT_TRUE(SameContents(tree, ref));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeErasePrefixRandomized,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Randomized differential test against std::multimap-like reference.
// ---------------------------------------------------------------------------

class BPlusTreeRandomized : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeRandomized, MatchesReferenceUnderRandomWorkload) {
  Random rng(GetParam());
  BPlusTree tree;
  std::map<std::pair<int64_t, uint64_t>, bool> reference;

  for (int op = 0; op < 4000; ++op) {
    int64_t key = static_cast<int64_t>(rng.Uniform(200));
    uint64_t rid = rng.Uniform(5);
    if (rng.Bernoulli(0.6)) {
      tree.Insert(K(key), rid);
      reference[{key, rid}] = true;
    } else {
      bool erased = tree.Erase(K(key), rid);
      bool expected = reference.erase({key, rid}) > 0;
      ASSERT_EQ(erased, expected) << "op " << op;
    }
    if (op % 512 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "op " << op;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ASSERT_EQ(tree.size(), reference.size());

  // Every reference entry is findable; iteration matches exactly.
  auto it = tree.Begin();
  for (const auto& [kr, _] : reference) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key()[0].AsInt(), kr.first);
    EXPECT_EQ(it.rid(), kr.second);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeRandomized,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace provlin::storage
