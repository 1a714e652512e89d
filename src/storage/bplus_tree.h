#ifndef PROVLIN_STORAGE_BPLUS_TREE_H_
#define PROVLIN_STORAGE_BPLUS_TREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "storage/datum.h"

namespace provlin::storage {

/// In-memory B+tree over composite keys, used for every ordered secondary
/// index of the trace database. Duplicate user keys are disambiguated by
/// the row id, which is appended as the least-significant key component,
/// so equality lookups become prefix scans.
///
/// Structure: internal nodes hold separator keys and child pointers; leaf
/// nodes hold (key, row-id) entries and are linked left-to-right for range
/// scans. Fanout is fixed at kFanout; nodes split when they exceed it and
/// borrow/merge when they underflow below kFanout/2 after a deletion (a
/// leaf borrows as many entries as it is short, so a range erase that
/// trims a leaf by many entries restores occupancy in one fix).
class BPlusTree {
 public:
  /// One indexed entry: composite user key plus owning row id.
  struct Entry {
    Key key;
    uint64_t rid = 0;
  };

  BPlusTree();
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Inserts (key, rid). Duplicate (key, rid) pairs are ignored.
  void Insert(const Key& key, uint64_t rid);

  /// Removes (key, rid); returns false when absent.
  bool Erase(const Key& key, uint64_t rid);

  /// Removes every entry whose key has `prefix` as its leading
  /// components; returns how many were removed. Costs one root-to-leaf
  /// descent per leaf it empties or trims (plus one when the first match
  /// sits past a stale separator), and drops each leaf's matches with a
  /// single range erase instead of one descent per entry.
  size_t ErasePrefix(const Key& prefix);

  /// Row ids of all entries whose key equals `key`, in rid order.
  std::vector<uint64_t> Lookup(const Key& key) const;

  /// Row ids of all entries whose key has `prefix` as its leading
  /// components, in (key, rid) order. An empty prefix returns everything.
  std::vector<uint64_t> PrefixLookup(const Key& prefix) const;

  /// Row ids of entries with lo <= key <= hi (inclusive bounds compare on
  /// full composite keys).
  std::vector<uint64_t> RangeLookup(const Key& lo, const Key& hi) const;

  /// One probe of a MultiSeek batch: the batched forms of Lookup
  /// (kPoint, key = lo), PrefixLookup (kPrefix, prefix = lo), and
  /// RangeLookup (kRange, [lo, hi] inclusive).
  struct Probe {
    enum class Kind { kPoint, kPrefix, kRange };
    Kind kind = Kind::kPoint;
    Key lo;
    Key hi;  // only read for kRange
  };

  /// Batched lookup answer in flat CSR form: probe i's row ids are
  /// rids[offsets[i] .. offsets[i+1]), in the same order the
  /// single-probe calls produce them, and descents counts the physical
  /// root-to-leaf walks the batch cost. The flat layout is deliberate:
  /// a vector-of-vectors costs one heap allocation per probe, which on
  /// small in-memory trees outweighs the descents the batch saves.
  struct MultiSeekResult {
    std::vector<uint64_t> rids;
    std::vector<size_t> offsets = {0};  // probe count + 1 entries
    uint64_t descents = 0;

    size_t num_probes() const { return offsets.size() - 1; }
    /// Probe i's row ids as a copy — convenience for tests and
    /// diagnostics; hot paths index rids/offsets directly.
    std::vector<uint64_t> MatchesOf(size_t i) const {
      return std::vector<uint64_t>(rids.begin() + static_cast<long>(offsets[i]),
                                   rids.begin() +
                                       static_cast<long>(offsets[i + 1]));
    }
  };

  /// Answers a batch of probes in one amortized pass. The tree descends
  /// from the root for the first probe only; each subsequent probe whose
  /// lower bound is >= the previous probe's advances along the linked
  /// leaf chain from the previous probe's start position (bounded by
  /// kMaxLeafWalk leaves before falling back to a fresh descent).
  /// Callers get maximum amortization by sorting probes by `lo`, but any
  /// order is answered correctly — an out-of-order probe just pays a
  /// descent.
  MultiSeekResult MultiSeek(const std::vector<Probe>& probes) const;

  size_t size() const { return size_; }

  /// Approximate resident bytes of the whole tree: node objects, entry
  /// vectors, and every key's datum heap.
  size_t ApproxMemoryUsage() const;
  bool empty() const { return size_ == 0; }

  /// Tree height (1 = a lone leaf). Exposed for tests and stats.
  int height() const;

  /// Validates structural invariants: sorted entries, separator ordering,
  /// node occupancy, leaf-chain consistency, size agreement. Used by the
  /// property tests after randomized workloads.
  Status CheckInvariants() const;

  /// Read cursor positioned inside the leaf chain.
  class Iterator {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    const Key& key() const;
    uint64_t rid() const;
    void Next();

   private:
    friend class BPlusTree;
    const void* leaf_ = nullptr;  // LeafNode*
    size_t pos_ = 0;
  };

  Iterator Begin() const;
  /// First entry with key-tuple >= (key, rid = 0).
  Iterator Seek(const Key& key) const;

 private:
  struct Node;
  struct LeafNode;
  struct InternalNode;

  static constexpr size_t kFanout = 64;
  static constexpr size_t kMinOccupancy = kFanout / 2;
  /// How many leaves MultiSeek walks forward before a chain advance is
  /// judged more expensive than a fresh O(height) descent.
  static constexpr int kMaxLeafWalk = 8;

  /// Result of a child insert that overflowed and split.
  struct SplitResult {
    Entry separator;            // first entry of the right node
    std::unique_ptr<Node> right;
  };

  static int CompareEntries(const Entry& a, const Entry& b);

  bool InsertRec(Node* node, const Entry& entry,
                 std::unique_ptr<SplitResult>* split);
  bool EraseRec(Node* node, const Entry& entry, bool* underflow);
  size_t ErasePrefixRec(Node* node, const Entry& probe, const Key& prefix,
                        std::optional<Entry>* next, bool* underflow);
  /// Drops internal roots left with a single child.
  void CollapseRoot();
  void FixChildUnderflow(InternalNode* parent, size_t child_idx);

  const LeafNode* FindLeaf(const Entry& probe) const;
  /// FindLeaf for a probe Entry{key, rid 0}, without copying the key.
  const LeafNode* FindLeafForKey(const Key& key) const;

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace provlin::storage

#endif  // PROVLIN_STORAGE_BPLUS_TREE_H_
