#include "storage/bplus_tree.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "storage/segment.h"

namespace provlin::storage {

// ---------------------------------------------------------------------------
// Node layout
// ---------------------------------------------------------------------------

struct BPlusTree::Node {
  explicit Node(bool leaf) : is_leaf(leaf) {}
  virtual ~Node() = default;
  bool is_leaf;
};

struct BPlusTree::LeafNode : Node {
  LeafNode() : Node(true) {}
  std::vector<Entry> entries;
  LeafNode* next = nullptr;
};

struct BPlusTree::InternalNode : Node {
  InternalNode() : Node(false) {}
  // children.size() == seps.size() + 1. seps[i] is a lower bound for the
  // subtree children[i+1]: every entry e in children[i+1] satisfies
  // seps[i] <= e, and every entry in children[i] is < seps[i].
  std::vector<Entry> seps;
  std::vector<std::unique_ptr<Node>> children;
};

int BPlusTree::CompareEntries(const Entry& a, const Entry& b) {
  int c = CompareKeys(a.key, b.key);
  if (c != 0) return c;
  if (a.rid < b.rid) return -1;
  if (a.rid > b.rid) return 1;
  return 0;
}

namespace {

bool EntryLess(const BPlusTree::Entry& a, const BPlusTree::Entry& b) {
  int c = CompareKeys(a.key, b.key);
  if (c != 0) return c < 0;
  return a.rid < b.rid;
}

// Entry comparisons against a bare probe key, semantically identical to
// EntryLess against Entry{key, rid 0} — used where materializing the
// probe Entry would deep-copy the key.
bool EntryBelowKey(const BPlusTree::Entry& e, const Key& key) {
  // The rid tie-break can never fire: no rid is below the probe's 0.
  return CompareKeys(e.key, key) < 0;
}

bool KeyBelowEntry(const Key& key, const BPlusTree::Entry& e) {
  int c = CompareKeys(key, e.key);
  return c < 0 || (c == 0 && e.rid != 0);
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

BPlusTree::BPlusTree() : root_(std::make_unique<LeafNode>()) {}
BPlusTree::~BPlusTree() = default;

// ---------------------------------------------------------------------------
// Descent helpers
// ---------------------------------------------------------------------------

const BPlusTree::LeafNode* BPlusTree::FindLeaf(const Entry& probe) const {
  const Node* node = root_.get();
  while (!node->is_leaf) {
    const auto* in = static_cast<const InternalNode*>(node);
    // Child index = number of separators <= probe.
    size_t idx = static_cast<size_t>(
        std::upper_bound(in->seps.begin(), in->seps.end(), probe, EntryLess) -
        in->seps.begin());
    node = in->children[idx].get();
  }
  return static_cast<const LeafNode*>(node);
}

const BPlusTree::LeafNode* BPlusTree::FindLeafForKey(const Key& key) const {
  // Same descent as FindLeaf(Entry{key, 0}) without copying the key.
  const Node* node = root_.get();
  while (!node->is_leaf) {
    const auto* in = static_cast<const InternalNode*>(node);
    size_t idx = static_cast<size_t>(
        std::upper_bound(in->seps.begin(), in->seps.end(), key,
                         KeyBelowEntry) -
        in->seps.begin());
    node = in->children[idx].get();
  }
  return static_cast<const LeafNode*>(node);
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

void BPlusTree::Insert(const Key& key, uint64_t rid) {
  Entry entry{key, rid};
  std::unique_ptr<SplitResult> split;
  if (!InsertRec(root_.get(), entry, &split)) return;  // duplicate
  ++size_;
  if (split != nullptr) {
    // Grow a new root above the old one.
    auto new_root = std::make_unique<InternalNode>();
    new_root->seps.push_back(split->separator);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
  }
}

bool BPlusTree::InsertRec(Node* node, const Entry& entry,
                          std::unique_ptr<SplitResult>* split) {
  if (node->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    auto it = std::lower_bound(leaf->entries.begin(), leaf->entries.end(),
                               entry, EntryLess);
    if (it != leaf->entries.end() && CompareEntries(*it, entry) == 0) {
      return false;  // exact duplicate
    }
    leaf->entries.insert(it, entry);
    if (leaf->entries.size() > kFanout) {
      size_t mid = leaf->entries.size() / 2;
      auto right = std::make_unique<LeafNode>();
      right->entries.assign(leaf->entries.begin() + static_cast<long>(mid),
                            leaf->entries.end());
      leaf->entries.resize(mid);
      right->next = leaf->next;
      leaf->next = right.get();
      auto out = std::make_unique<SplitResult>();
      out->separator = right->entries.front();
      out->right = std::move(right);
      *split = std::move(out);
    }
    return true;
  }

  auto* in = static_cast<InternalNode*>(node);
  size_t idx = static_cast<size_t>(
      std::upper_bound(in->seps.begin(), in->seps.end(), entry, EntryLess) -
      in->seps.begin());
  std::unique_ptr<SplitResult> child_split;
  if (!InsertRec(in->children[idx].get(), entry, &child_split)) return false;
  if (child_split != nullptr) {
    in->seps.insert(in->seps.begin() + static_cast<long>(idx),
                    child_split->separator);
    in->children.insert(in->children.begin() + static_cast<long>(idx) + 1,
                        std::move(child_split->right));
    if (in->seps.size() > kFanout) {
      // Push the median separator up; right node takes the tail.
      size_t mid = in->seps.size() / 2;
      auto right = std::make_unique<InternalNode>();
      Entry up = in->seps[mid];
      right->seps.assign(in->seps.begin() + static_cast<long>(mid) + 1,
                         in->seps.end());
      for (size_t i = mid + 1; i < in->children.size(); ++i) {
        right->children.push_back(std::move(in->children[i]));
      }
      in->seps.resize(mid);
      in->children.resize(mid + 1);
      auto out = std::make_unique<SplitResult>();
      out->separator = up;
      out->right = std::move(right);
      *split = std::move(out);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Erase
// ---------------------------------------------------------------------------

bool BPlusTree::Erase(const Key& key, uint64_t rid) {
  Entry entry{key, rid};
  bool underflow = false;
  if (!EraseRec(root_.get(), entry, &underflow)) return false;
  --size_;
  CollapseRoot();
  return true;
}

void BPlusTree::CollapseRoot() {
  while (!root_->is_leaf) {
    auto* in = static_cast<InternalNode*>(root_.get());
    if (in->children.size() > 1) break;
    root_ = std::move(in->children.front());
  }
}

bool BPlusTree::EraseRec(Node* node, const Entry& entry, bool* underflow) {
  if (node->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    auto it = std::lower_bound(leaf->entries.begin(), leaf->entries.end(),
                               entry, EntryLess);
    if (it == leaf->entries.end() || CompareEntries(*it, entry) != 0) {
      return false;
    }
    leaf->entries.erase(it);
    *underflow = leaf->entries.size() < kMinOccupancy;
    return true;
  }

  auto* in = static_cast<InternalNode*>(node);
  size_t idx = static_cast<size_t>(
      std::upper_bound(in->seps.begin(), in->seps.end(), entry, EntryLess) -
      in->seps.begin());
  bool child_underflow = false;
  if (!EraseRec(in->children[idx].get(), entry, &child_underflow)) {
    return false;
  }
  if (child_underflow) FixChildUnderflow(in, idx);
  *underflow = in->children.size() < kMinOccupancy;
  return true;
}

size_t BPlusTree::ErasePrefix(const Key& prefix) {
  // Each pass descends to the leaf holding the first remaining match and
  // drops that leaf's matches with one range erase. A pass whose matches
  // ran to the leaf's end hands back the next leaf's first entry when it
  // still matches. Separators are lower bounds, not copies of the leaf
  // fronts, so that exact entry (not the bare prefix) is what routes the
  // next descent to the leaf now holding it, wherever the underflow fix
  // moved it.
  size_t removed = 0;
  std::optional<Entry> probe = Entry{prefix, 0};
  while (probe.has_value()) {
    std::optional<Entry> next;
    bool underflow = false;
    removed += ErasePrefixRec(root_.get(), *probe, prefix, &next, &underflow);
    CollapseRoot();
    probe = std::move(next);
  }
  size_ -= removed;
  return removed;
}

size_t BPlusTree::ErasePrefixRec(Node* node, const Entry& probe,
                                 const Key& prefix, std::optional<Entry>* next,
                                 bool* underflow) {
  if (node->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    auto first = std::lower_bound(leaf->entries.begin(), leaf->entries.end(),
                                  probe, EntryLess);
    auto last = std::find_if_not(first, leaf->entries.end(),
                                 [&](const Entry& e) {
                                   return KeyHasPrefix(e.key, prefix);
                                 });
    const LeafNode* right = leaf->next;
    if (last == leaf->entries.end() && right != nullptr &&
        !right->entries.empty() &&
        KeyHasPrefix(right->entries.front().key, prefix)) {
      *next = right->entries.front();
    }
    const auto removed = static_cast<size_t>(last - first);
    leaf->entries.erase(first, last);
    *underflow = leaf->entries.size() < kMinOccupancy;
    return removed;
  }

  auto* in = static_cast<InternalNode*>(node);
  size_t idx = static_cast<size_t>(
      std::upper_bound(in->seps.begin(), in->seps.end(), probe, EntryLess) -
      in->seps.begin());
  bool child_underflow = false;
  size_t removed = ErasePrefixRec(in->children[idx].get(), probe, prefix, next,
                                  &child_underflow);
  if (child_underflow) FixChildUnderflow(in, idx);
  *underflow = in->children.size() < kMinOccupancy;
  return removed;
}

void BPlusTree::FixChildUnderflow(InternalNode* parent, size_t child_idx) {
  Node* child = parent->children[child_idx].get();

  auto left_idx = child_idx > 0 ? child_idx - 1 : child_idx;
  Node* left_sib =
      child_idx > 0 ? parent->children[child_idx - 1].get() : nullptr;
  Node* right_sib = child_idx + 1 < parent->children.size()
                        ? parent->children[child_idx + 1].get()
                        : nullptr;

  if (child->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(child);
    auto* lleaf = static_cast<LeafNode*>(left_sib);
    auto* rleaf = static_cast<LeafNode*>(right_sib);
    // The deficit is 1 after a single Erase and up to kMinOccupancy after
    // an ErasePrefix pass; a sibling lends only what it can spare.
    const size_t need = kMinOccupancy - leaf->entries.size();
    const auto lend = static_cast<long>(need);
    if (lleaf != nullptr && lleaf->entries.size() >= kMinOccupancy + need) {
      // Borrow the `need` largest entries from the left sibling.
      auto from = lleaf->entries.end() - lend;
      leaf->entries.insert(leaf->entries.begin(), std::make_move_iterator(from),
                           std::make_move_iterator(lleaf->entries.end()));
      lleaf->entries.erase(from, lleaf->entries.end());
      parent->seps[child_idx - 1] = leaf->entries.front();
      return;
    }
    if (rleaf != nullptr && rleaf->entries.size() >= kMinOccupancy + need) {
      // Borrow the `need` smallest entries from the right sibling.
      auto to = rleaf->entries.begin() + lend;
      leaf->entries.insert(leaf->entries.end(),
                           std::make_move_iterator(rleaf->entries.begin()),
                           std::make_move_iterator(to));
      rleaf->entries.erase(rleaf->entries.begin(), to);
      parent->seps[child_idx] = rleaf->entries.front();
      return;
    }
    // Merge with a sibling (prefer left so the leaf chain stays simple).
    if (lleaf != nullptr) {
      lleaf->entries.insert(lleaf->entries.end(), leaf->entries.begin(),
                            leaf->entries.end());
      lleaf->next = leaf->next;
      parent->seps.erase(parent->seps.begin() + static_cast<long>(left_idx));
      parent->children.erase(parent->children.begin() +
                             static_cast<long>(child_idx));
    } else if (rleaf != nullptr) {
      leaf->entries.insert(leaf->entries.end(), rleaf->entries.begin(),
                           rleaf->entries.end());
      leaf->next = rleaf->next;
      parent->seps.erase(parent->seps.begin() + static_cast<long>(child_idx));
      parent->children.erase(parent->children.begin() +
                             static_cast<long>(child_idx) + 1);
    }
    return;
  }

  auto* in = static_cast<InternalNode*>(child);
  auto* lin = static_cast<InternalNode*>(left_sib);
  auto* rin = static_cast<InternalNode*>(right_sib);
  if (lin != nullptr && lin->children.size() > kMinOccupancy) {
    // Rotate through the parent separator.
    in->seps.insert(in->seps.begin(), parent->seps[child_idx - 1]);
    parent->seps[child_idx - 1] = lin->seps.back();
    lin->seps.pop_back();
    in->children.insert(in->children.begin(),
                        std::move(lin->children.back()));
    lin->children.pop_back();
    return;
  }
  if (rin != nullptr && rin->children.size() > kMinOccupancy) {
    in->seps.push_back(parent->seps[child_idx]);
    parent->seps[child_idx] = rin->seps.front();
    rin->seps.erase(rin->seps.begin());
    in->children.push_back(std::move(rin->children.front()));
    rin->children.erase(rin->children.begin());
    return;
  }
  if (lin != nullptr) {
    lin->seps.push_back(parent->seps[left_idx]);
    lin->seps.insert(lin->seps.end(), in->seps.begin(), in->seps.end());
    for (auto& c : in->children) lin->children.push_back(std::move(c));
    parent->seps.erase(parent->seps.begin() + static_cast<long>(left_idx));
    parent->children.erase(parent->children.begin() +
                           static_cast<long>(child_idx));
  } else if (rin != nullptr) {
    in->seps.push_back(parent->seps[child_idx]);
    in->seps.insert(in->seps.end(), rin->seps.begin(), rin->seps.end());
    for (auto& c : rin->children) in->children.push_back(std::move(c));
    parent->seps.erase(parent->seps.begin() + static_cast<long>(child_idx));
    parent->children.erase(parent->children.begin() +
                           static_cast<long>(child_idx) + 1);
  }
}

// ---------------------------------------------------------------------------
// Lookups
// ---------------------------------------------------------------------------

std::vector<uint64_t> BPlusTree::Lookup(const Key& key) const {
  std::vector<uint64_t> out;
  for (Iterator it = Seek(key); it.Valid(); it.Next()) {
    if (CompareKeys(it.key(), key) != 0) break;
    out.push_back(it.rid());
  }
  return out;
}

std::vector<uint64_t> BPlusTree::PrefixLookup(const Key& prefix) const {
  std::vector<uint64_t> out;
  for (Iterator it = Seek(prefix); it.Valid(); it.Next()) {
    if (!KeyHasPrefix(it.key(), prefix)) break;
    out.push_back(it.rid());
  }
  return out;
}

std::vector<uint64_t> BPlusTree::RangeLookup(const Key& lo,
                                             const Key& hi) const {
  std::vector<uint64_t> out;
  for (Iterator it = Seek(lo); it.Valid(); it.Next()) {
    if (CompareKeys(it.key(), hi) > 0) break;
    out.push_back(it.rid());
  }
  return out;
}

BPlusTree::MultiSeekResult BPlusTree::MultiSeek(
    const std::vector<Probe>& probes) const {
  MultiSeekResult out;
  if (probes.empty()) return out;
  out.offsets.reserve(probes.size() + 1);

  // Cursor invariant: (anchor_leaf, anchor_pos) is where the previous
  // probe's matches *started* (its lower bound), and prev_lo is that
  // probe's lower bound. lower_bound is monotone in the probe key, so
  // any probe with lo >= prev_lo finds its own lower bound at or after
  // the anchor — reachable by walking the leaf chain forward instead of
  // re-descending from the root.
  const LeafNode* anchor_leaf = nullptr;
  size_t anchor_pos = 0;
  const Key* prev_lo = nullptr;

  for (size_t i = 0; i < probes.size(); ++i) {
    const Probe& probe = probes[i];

    bool positioned = false;
    if (anchor_leaf != nullptr && prev_lo != nullptr &&
        CompareKeys(*prev_lo, probe.lo) <= 0) {
      const LeafNode* leaf = anchor_leaf;
      size_t start = anchor_pos;
      for (int walked = 0; leaf != nullptr && walked <= kMaxLeafWalk;
           ++walked) {
        if (!leaf->entries.empty() &&
            !EntryBelowKey(leaf->entries.back(), probe.lo)) {
          // The lower bound lies in this leaf, at or after `start`
          // (everything before `start` is below the previous — hence
          // also this — probe's lower bound).
          auto begin = leaf->entries.begin() + static_cast<long>(start);
          auto it = std::lower_bound(begin, leaf->entries.end(), probe.lo,
                                     EntryBelowKey);
          anchor_leaf = leaf;
          anchor_pos = static_cast<size_t>(it - leaf->entries.begin());
          positioned = true;
          break;
        }
        if (leaf->next == nullptr) {
          // Ran off the chain: the lower bound is end-of-tree. Pin the
          // anchor there so later (sorted) probes resolve without a
          // futile descent.
          anchor_leaf = leaf;
          anchor_pos = leaf->entries.size();
          positioned = true;
          break;
        }
        leaf = leaf->next;
        start = 0;
      }
    }
    if (!positioned) {
      ++out.descents;
      const LeafNode* leaf = FindLeafForKey(probe.lo);
      auto it = std::lower_bound(leaf->entries.begin(), leaf->entries.end(),
                                 probe.lo, EntryBelowKey);
      anchor_leaf = leaf;
      anchor_pos = static_cast<size_t>(it - leaf->entries.begin());
    }
    prev_lo = &probe.lo;

    // Collect this probe's matches from the anchor forward.
    const LeafNode* leaf = anchor_leaf;
    size_t pos = anchor_pos;
    while (leaf != nullptr) {
      if (pos >= leaf->entries.size()) {
        leaf = leaf->next;
        pos = 0;
        continue;
      }
      const Entry& e = leaf->entries[pos];
      bool keep = false;
      switch (probe.kind) {
        case Probe::Kind::kPoint:
          keep = CompareKeys(e.key, probe.lo) == 0;
          break;
        case Probe::Kind::kPrefix:
          keep = KeyHasPrefix(e.key, probe.lo);
          break;
        case Probe::Kind::kRange:
          keep = CompareKeys(e.key, probe.hi) <= 0;
          break;
      }
      if (!keep) break;
      out.rids.push_back(e.rid);
      ++pos;
    }
    out.offsets.push_back(out.rids.size());
  }
  return out;
}

int BPlusTree::height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = static_cast<const InternalNode*>(node)->children.front().get();
    ++h;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

const Key& BPlusTree::Iterator::key() const {
  return static_cast<const LeafNode*>(leaf_)->entries[pos_].key;
}

uint64_t BPlusTree::Iterator::rid() const {
  return static_cast<const LeafNode*>(leaf_)->entries[pos_].rid;
}

void BPlusTree::Iterator::Next() {
  const auto* leaf = static_cast<const LeafNode*>(leaf_);
  ++pos_;
  while (leaf != nullptr && pos_ >= leaf->entries.size()) {
    leaf = leaf->next;
    pos_ = 0;
  }
  leaf_ = leaf;
}

BPlusTree::Iterator BPlusTree::Begin() const {
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = static_cast<const InternalNode*>(node)->children.front().get();
  }
  const auto* leaf = static_cast<const LeafNode*>(node);
  Iterator it;
  it.leaf_ = leaf;
  it.pos_ = 0;
  if (leaf->entries.empty()) {
    // Empty tree has a single empty leaf.
    it.leaf_ = nullptr;
  }
  return it;
}

BPlusTree::Iterator BPlusTree::Seek(const Key& key) const {
  Entry probe{key, 0};
  const LeafNode* leaf = FindLeaf(probe);
  auto pos = static_cast<size_t>(
      std::lower_bound(leaf->entries.begin(), leaf->entries.end(), probe,
                       EntryLess) -
      leaf->entries.begin());
  // Walk forward past empty tails into the next non-empty leaf.
  const LeafNode* cur = leaf;
  while (cur != nullptr && pos >= cur->entries.size()) {
    cur = cur->next;
    pos = 0;
  }
  Iterator it;
  it.leaf_ = cur;
  it.pos_ = pos;
  return it;
}

// ---------------------------------------------------------------------------
// Invariant checking
// ---------------------------------------------------------------------------

Status BPlusTree::CheckInvariants() const {
  // Recursive walk validating ordering and occupancy, with lo/hi bounds.
  struct Walker {
    const BPlusTree* tree;
    size_t entries = 0;
    int leaf_depth = -1;

    Status Walk(const Node* node, const Entry* lo, const Entry* hi, int depth,
                bool is_root) {
      if (node->is_leaf) {
        const auto* leaf = static_cast<const LeafNode*>(node);
        if (leaf_depth == -1) leaf_depth = depth;
        if (leaf_depth != depth) {
          return Status::Corruption("leaves at differing depths");
        }
        if (!is_root && leaf->entries.size() < kMinOccupancy) {
          return Status::Corruption("leaf underflow");
        }
        if (leaf->entries.size() > kFanout) {
          return Status::Corruption("leaf overflow");
        }
        const Entry* prev = nullptr;
        for (const Entry& e : leaf->entries) {
          if (prev != nullptr && CompareEntries(*prev, e) >= 0) {
            return Status::Corruption("unsorted leaf entries");
          }
          if (lo != nullptr && CompareEntries(e, *lo) < 0) {
            return Status::Corruption("leaf entry below lower bound");
          }
          if (hi != nullptr && CompareEntries(e, *hi) >= 0) {
            return Status::Corruption("leaf entry above upper bound");
          }
          prev = &e;
          ++entries;
        }
        return Status::OK();
      }
      const auto* in = static_cast<const InternalNode*>(node);
      if (in->children.size() != in->seps.size() + 1) {
        return Status::Corruption("child/separator count mismatch");
      }
      if (!is_root && in->children.size() < kMinOccupancy) {
        return Status::Corruption("internal underflow");
      }
      if (in->seps.size() > kFanout) {
        return Status::Corruption("internal overflow");
      }
      for (size_t i = 0; i + 1 < in->seps.size(); ++i) {
        if (CompareEntries(in->seps[i], in->seps[i + 1]) >= 0) {
          return Status::Corruption("unsorted separators");
        }
      }
      for (size_t i = 0; i < in->children.size(); ++i) {
        const Entry* clo = i == 0 ? lo : &in->seps[i - 1];
        const Entry* chi = i == in->seps.size() ? hi : &in->seps[i];
        Status st = Walk(in->children[i].get(), clo, chi, depth + 1, false);
        if (!st.ok()) return st;
      }
      return Status::OK();
    }
  };

  Walker w{this};
  Status st = w.Walk(root_.get(), nullptr, nullptr, 1, true);
  if (!st.ok()) return st;
  if (w.entries != size_) {
    return Status::Corruption("size() disagrees with entry count");
  }
  // Leaf-chain must enumerate exactly size_ entries in sorted order.
  size_t chained = 0;
  bool have_prev = false;
  Entry prev;
  for (Iterator it = Begin(); it.Valid(); it.Next()) {
    ++chained;
    Entry cur{it.key(), it.rid()};
    if (have_prev && CompareEntries(prev, cur) >= 0) {
      return Status::Corruption("leaf chain out of order");
    }
    prev = cur;
    have_prev = true;
  }
  if (chained != size_) {
    return Status::Corruption("leaf chain length disagrees with size()");
  }
  return Status::OK();
}

size_t BPlusTree::ApproxMemoryUsage() const {
  struct Walker {
    static size_t KeyHeap(const Key& key) {
      // RowApproxBytes counts the vector header too; the Entry already
      // accounts for it, so strip it back off.
      return RowApproxBytes(key) - sizeof(Row);
    }
    static size_t Walk(const Node* node) {
      if (node->is_leaf) {
        const auto* leaf = static_cast<const LeafNode*>(node);
        size_t total =
            sizeof(LeafNode) + leaf->entries.capacity() * sizeof(Entry);
        for (const Entry& e : leaf->entries) total += KeyHeap(e.key);
        return total;
      }
      const auto* inner = static_cast<const InternalNode*>(node);
      size_t total = sizeof(InternalNode) +
                     inner->seps.capacity() * sizeof(Entry) +
                     inner->children.capacity() * sizeof(std::unique_ptr<Node>);
      for (const Entry& e : inner->seps) total += KeyHeap(e.key);
      for (const auto& child : inner->children) total += Walk(child.get());
      return total;
    }
  };
  return sizeof(BPlusTree) + (root_ != nullptr ? Walker::Walk(root_.get()) : 0);
}

}  // namespace provlin::storage
