#include "text/repair.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "util/check.h"

namespace adict {

void PairMap::Reserve(size_t entries) {
  size_t capacity = 16;
  while (capacity < entries * 2) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
}

uint32_t PairMap::FindOrInsert(uint32_t key, uint32_t value) {
  ADICT_DCHECK(value != kMissing);
  if ((size_ + 1) * 2 > slots_.size()) {
    Rehash(std::max<size_t>(16, slots_.size() * 2));
  }
  for (size_t i = Home(key);; i = (i + 1) & (slots_.size() - 1)) {
    const uint64_t slot = slots_[i];
    if (slot == kEmptySlot) {
      slots_[i] = (uint64_t{key} << 32) | value;
      ++size_;
      return value;
    }
    if (static_cast<uint32_t>(slot >> 32) == key) {
      return static_cast<uint32_t>(slot);
    }
  }
}

void PairMap::Rehash(size_t capacity) {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(capacity, kEmptySlot);
  shift_ = 64 - std::countr_zero(capacity);
  for (uint64_t slot : old) {
    if (slot == kEmptySlot) continue;
    size_t i = Home(static_cast<uint32_t>(slot >> 32));
    while (slots_[i] != kEmptySlot) i = (i + 1) & (capacity - 1);
    slots_[i] = slot;
  }
}

namespace {

constexpr int32_t kEmpty = -1;
constexpr int32_t kSeparator = -2;

/// Mutable training sequence with hole skipping and per-pair occurrence
/// lists (the Larsson-Moffat data structure). Each distinct pair has one
/// record, found through an open-addressing index; an indexed max-heap holds
/// every pair that occurs at least twice exactly once, ordered by (count,
/// key), so equal counts go to the larger key. A count change moves the pair
/// within the heap in O(log pairs).
class Trainer {
 public:
  explicit Trainer(const std::vector<std::string_view>& samples) {
    size_t total = 0;
    for (std::string_view s : samples) total += s.size() + 1;
    seq_.reserve(total);
    for (std::string_view s : samples) {
      for (unsigned char ch : s) seq_.push_back(ch);
      seq_.push_back(kSeparator);
    }
    const int32_t n = static_cast<int32_t>(seq_.size());
    nxt_.resize(n);
    prv_.resize(n);
    occ_next_.assign(n, -1);
    occ_prev_.assign(n, -1);
    for (int32_t i = 0; i < n; ++i) {
      nxt_[i] = i + 1;
      prv_[i] = i - 1;
    }
    // Initial pair census.
    index_.Reserve(1024);
    for (int32_t i = 0; i + 1 < n; ++i) {
      if (Pairable(seq_[i]) && Pairable(seq_[i + 1])) {
        AddOccurrence(i, i + 1);
      }
    }
  }

  /// Runs replacement rounds until no pair occurs twice or `max_rules` rules
  /// exist. Returns the rules in creation order.
  std::vector<std::pair<uint16_t, uint16_t>> Run(size_t max_rules) {
    std::vector<std::pair<uint16_t, uint16_t>> rules;
    std::vector<int32_t> valid;
    while (rules.size() < max_rules && !heap_.empty()) {
      const uint32_t top = heap_[0].id;
      HeapErase(0);
      const int32_t a = static_cast<int32_t>(pairs_[top].key >> 16);
      const int32_t b = static_cast<int32_t>(pairs_[top].key & 0xffff);

      // Collect still-valid occurrence positions, left to right, skipping
      // overlaps (relevant for pairs like (x, x) in runs of x). Lists link
      // the newest occurrence first, and all occurrences of a pair are added
      // in one left-to-right pass (the census, or the round that created its
      // newer symbol), so a list runs right to left.
      valid.clear();
      for (int32_t p = pairs_[top].head; p >= 0; p = occ_next_[p]) {
        valid.push_back(p);
      }
      std::reverse(valid.begin(), valid.end());
      ADICT_DCHECK(std::is_sorted(valid.begin(), valid.end()));
      size_t kept = 0;
      int32_t last_end = -1;
      for (int32_t p : valid) {
        if (seq_[p] != a) continue;
        const int32_t q = Next(p);
        if (q < 0 || seq_[q] != b) continue;
        if (p <= last_end) continue;  // overlaps previous replacement site
        valid[kept++] = p;
        last_end = q;
      }
      valid.resize(kept);
      if (valid.size() < 2) {
        // Overcounted (overlaps): retire the pair without spending a rule.
        pairs_[top].heap_pos = kRetired;
        continue;
      }

      const int32_t rule_symbol = 256 + static_cast<int32_t>(rules.size());
      rules.emplace_back(static_cast<uint16_t>(a), static_cast<uint16_t>(b));

      for (int32_t i : valid) {
        // Re-validate: an earlier replacement in this round may have
        // consumed a neighbor.
        if (seq_[i] != a) continue;
        const int32_t j = Next(i);
        if (j < 0 || seq_[j] != b) continue;

        const int32_t left = Prev(i);
        const int32_t right = Next(j);

        // Retire the old neighbor pairs.
        if (left >= 0 && Pairable(seq_[left])) RemoveOccurrence(left, i);
        if (right >= 0 && Pairable(seq_[right])) RemoveOccurrence(j, right);
        RemoveOccurrence(i, j);

        // Perform the replacement.
        seq_[i] = rule_symbol;
        seq_[j] = kEmpty;
        nxt_[i] = right >= 0 ? right : static_cast<int32_t>(seq_.size());
        if (right >= 0) prv_[right] = i;

        // Introduce the new neighbor pairs. They contain the new symbol, so
        // none of them is the pair being replaced.
        if (left >= 0 && Pairable(seq_[left])) AddOccurrence(left, i);
        if (right >= 0 && Pairable(seq_[right])) AddOccurrence(i, right);
      }
      pairs_[top].heap_pos = kRetired;
    }
    return rules;
  }

 private:
  // PairRecord::heap_pos values besides a heap index.
  static constexpr int32_t kNotInHeap = -1;
  // Replaced, or found overcounted: its pair never forms again (new pairs
  // always contain a new symbol), and removals of leftover occurrences are
  // no-ops.
  static constexpr int32_t kRetired = -2;

  struct PairRecord {
    uint32_t key;
    uint32_t count = 0;
    int32_t head = -1;  // newest occurrence, or -1
    int32_t heap_pos = kNotInHeap;
  };

  /// Heap entries carry their priority, (count << 32 | key), so sifting
  /// reads only the heap array.
  struct HeapEntry {
    uint64_t priority;
    uint32_t id;  // pairs_ index
  };

  static bool Pairable(int32_t symbol) { return symbol >= 0; }

  int32_t Next(int32_t i) const {
    const int32_t n = nxt_[i];
    return n < static_cast<int32_t>(seq_.size()) ? n : -1;
  }
  int32_t Prev(int32_t i) const { return prv_[i]; }

  /// Registers the pair occurrence starting at position `p` (second symbol at
  /// `q`) and bumps its count.
  void AddOccurrence(int32_t p, int32_t q) {
    const uint32_t key = PairMap::Key(seq_[p], seq_[q]);
    const uint32_t id =
        index_.FindOrInsert(key, static_cast<uint32_t>(pairs_.size()));
    if (id == pairs_.size()) pairs_.push_back({key});
    PairRecord& pair = pairs_[id];
    ADICT_DCHECK(pair.heap_pos != kRetired);
    occ_next_[p] = pair.head;
    if (pair.head >= 0) occ_prev_[pair.head] = p;
    occ_prev_[p] = -1;
    pair.head = p;
    if (++pair.count < 2) return;
    if (pair.heap_pos == kNotInHeap) {
      pair.heap_pos = static_cast<int32_t>(heap_.size());
      heap_.push_back({0, id});
    }
    heap_[pair.heap_pos].priority = Priority(pair);
    SiftUp(pair.heap_pos);
  }

  /// Unregisters the pair occurrence starting at `p` (second symbol at `q`)
  /// and drops its count.
  void RemoveOccurrence(int32_t p, int32_t q) {
    const uint32_t id = index_.Find(PairMap::Key(seq_[p], seq_[q]));
    ADICT_DCHECK(id != PairMap::kMissing);
    PairRecord& pair = pairs_[id];
    if (pair.heap_pos == kRetired) return;

    const int32_t prev = occ_prev_[p];
    const int32_t next = occ_next_[p];
    if (prev >= 0) occ_next_[prev] = next;
    if (next >= 0) occ_prev_[next] = prev;
    if (pair.head == p) pair.head = next;
    occ_prev_[p] = occ_next_[p] = -1;

    // The pair being replaced is out of the heap while its round runs.
    --pair.count;
    if (pair.heap_pos < 0) return;
    if (pair.count < 2) {
      HeapErase(pair.heap_pos);
    } else {
      heap_[pair.heap_pos].priority = Priority(pair);
      SiftDown(pair.heap_pos);
    }
  }

  // -- Indexed max-heap over pairs_ ids, by (count, key) ---------------------

  static uint64_t Priority(const PairRecord& pair) {
    return (uint64_t{pair.count} << 32) | pair.key;
  }

  void Place(size_t pos, HeapEntry entry) {
    heap_[pos] = entry;
    pairs_[entry.id].heap_pos = static_cast<int32_t>(pos);
  }

  void SiftUp(size_t pos) {
    const HeapEntry entry = heap_[pos];
    while (pos > 0) {
      const size_t parent = (pos - 1) / 2;
      if (heap_[parent].priority >= entry.priority) break;
      Place(pos, heap_[parent]);
      pos = parent;
    }
    Place(pos, entry);
  }

  void SiftDown(size_t pos) {
    const HeapEntry entry = heap_[pos];
    const size_t n = heap_.size();
    for (;;) {
      size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].priority > heap_[child].priority) {
        ++child;
      }
      if (heap_[child].priority <= entry.priority) break;
      Place(pos, heap_[child]);
      pos = child;
    }
    Place(pos, entry);
  }

  /// Takes the pair at heap position `pos` out of the heap.
  void HeapErase(size_t pos) {
    pairs_[heap_[pos].id].heap_pos = kNotInHeap;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;
    Place(pos, last);
    SiftUp(pos);
    SiftDown(pairs_[last.id].heap_pos);
  }

  std::vector<int32_t> seq_;
  std::vector<int32_t> nxt_;
  std::vector<int32_t> prv_;
  std::vector<int32_t> occ_next_;
  std::vector<int32_t> occ_prev_;
  PairMap index_;  // pair key -> pairs_ id
  std::vector<PairRecord> pairs_;
  std::vector<HeapEntry> heap_;
};

}  // namespace

RePairCodec::RePairCodec(int symbol_bits,
                         std::vector<std::pair<uint16_t, uint16_t>> rules)
    : symbol_bits_(symbol_bits), rules_(std::move(rules)) {
  ADICT_CHECK(symbol_bits == 12 || symbol_bits == 16);
  pair_to_rule_.Reserve(rules_.size());
  for (size_t k = 0; k < rules_.size(); ++k) {
    const auto [a, b] = rules_[k];
    pair_to_rule_.FindOrInsert(PairMap::Key(a, b), static_cast<uint32_t>(k));
  }
}

std::unique_ptr<RePairCodec> RePairCodec::Train(
    int symbol_bits, const std::vector<std::string_view>& samples) {
  ADICT_CHECK(symbol_bits == 12 || symbol_bits == 16);
  const size_t max_rules = (1u << symbol_bits) - kFirstRuleSymbol;
  return std::unique_ptr<RePairCodec>(
      new RePairCodec(symbol_bits, Trainer(samples).Run(max_rules)));
}

std::unique_ptr<RePairCodec> RePairCodec::Deserialize(int symbol_bits,
                                                      ByteReader* in) {
  const std::vector<uint32_t> packed = in->ReadVector<uint32_t>();
  std::vector<std::pair<uint16_t, uint16_t>> rules;
  rules.reserve(packed.size());
  for (uint32_t key : packed) {
    rules.emplace_back(static_cast<uint16_t>(key >> 16),
                       static_cast<uint16_t>(key));
  }
  return std::unique_ptr<RePairCodec>(
      new RePairCodec(symbol_bits, std::move(rules)));
}

void RePairCodec::Serialize(ByteWriter* out) const {
  out->Write<uint16_t>(static_cast<uint16_t>(kind()));
  std::vector<uint32_t> packed;
  packed.reserve(rules_.size());
  for (const auto& [a, b] : rules_) {
    packed.push_back(PairMap::Key(a, b));
  }
  out->WriteVector(packed);
}

void RePairCodec::Parse(std::string_view s, std::vector<uint32_t>* symbols,
                        size_t* twelve_bit_symbols) const {
  // The symbols form a linked list over the input positions; a replacement
  // merges a node with its successor. A min-heap of (rule, position) holds
  // every adjacent pair that has a rule (entries go stale when a neighbor
  // changes and are re-validated on pop). Replacing a pair only creates
  // pairs that contain the new symbol, whose rules are all younger, so
  // popping in (rule, position) order applies the rules in creation order,
  // each at its non-overlapping occurrences leftmost first.
  constexpr uint32_t kMerged = ~0u;
  struct Node {
    uint32_t symbol;
    int32_t prev;
    int32_t next;
  };
  const int32_t n = static_cast<int32_t>(s.size());
  std::vector<Node> nodes(n);
  for (int32_t i = 0; i < n; ++i) {
    nodes[i] = {static_cast<unsigned char>(s[i]), i - 1, i + 1};
  }
  std::vector<uint64_t> heap;  // rule << 32 | position
  const auto push = [&](int32_t p) {
    const uint32_t rule = pair_to_rule_.Find(
        PairMap::Key(nodes[p].symbol, nodes[nodes[p].next].symbol));
    if (rule == PairMap::kMissing) return;
    heap.push_back((uint64_t{rule} << 32) | static_cast<uint32_t>(p));
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  };
  for (int32_t i = 0; i + 1 < n; ++i) push(i);
  size_t num_symbols = static_cast<size_t>(n);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const uint32_t rule = static_cast<uint32_t>(heap.back() >> 32);
    const int32_t p = static_cast<int32_t>(static_cast<uint32_t>(heap.back()));
    heap.pop_back();
    if (rule >= kTwelveBitRules && twelve_bit_symbols != nullptr) {
      *twelve_bit_symbols = num_symbols;
      twelve_bit_symbols = nullptr;
    }
    const int32_t q = nodes[p].next;
    if (q >= n || nodes[p].symbol != rules_[rule].first ||
        nodes[q].symbol != rules_[rule].second) {
      continue;
    }
    nodes[p].symbol = kFirstRuleSymbol + rule;
    nodes[q].symbol = kMerged;
    --num_symbols;
    nodes[p].next = nodes[q].next;
    if (nodes[p].next < n) {
      nodes[nodes[p].next].prev = p;
      push(p);
    }
    if (nodes[p].prev >= 0) push(nodes[p].prev);
  }

  if (twelve_bit_symbols != nullptr) *twelve_bit_symbols = num_symbols;
  symbols->clear();
  for (int32_t i = 0; i < n; i = nodes[i].next) {
    symbols->push_back(nodes[i].symbol);
  }
}

uint64_t RePairCodec::Encode(std::string_view s, BitWriter* out) const {
  std::vector<uint32_t> symbols;
  Parse(s, &symbols);
  for (uint32_t sym : symbols) {
    ADICT_DCHECK(sym < (1u << symbol_bits_));
    out->WriteBits(sym, symbol_bits_);
  }
  return static_cast<uint64_t>(symbols.size()) * symbol_bits_;
}

std::pair<uint64_t, uint64_t> RePairCodec::EncodedBitsAt12And16(
    std::string_view s) const {
  ADICT_CHECK(symbol_bits_ == 16);
  std::vector<uint32_t> symbols;
  size_t twelve_bit_symbols = 0;
  Parse(s, &symbols, &twelve_bit_symbols);
  return {uint64_t{twelve_bit_symbols} * 12, uint64_t{symbols.size()} * 16};
}

void RePairCodec::ExpandSymbol(uint32_t symbol, std::string* out) const {
  // Walks down left children, keeping the pending right children on a stack
  // that lives inline and spills to the heap only for grammars deeper than
  // kInlineDepth.
  constexpr size_t kInlineDepth = 64;
  uint32_t pending[kInlineDepth];
  std::vector<uint32_t> spilled;
  size_t depth = 0;
  for (;;) {
    while (symbol >= kFirstRuleSymbol) {
      const auto [left, right] = rules_[symbol - kFirstRuleSymbol];
      if (depth < kInlineDepth) {
        pending[depth] = right;
      } else {
        spilled.push_back(right);
      }
      ++depth;
      symbol = left;
    }
    out->push_back(static_cast<char>(symbol));
    if (depth == 0) return;
    --depth;
    if (depth < kInlineDepth) {
      symbol = pending[depth];
    } else {
      symbol = spilled.back();
      spilled.pop_back();
    }
  }
}

void RePairCodec::Decode(BitReader* in, uint64_t bit_len,
                         std::string* out) const {
  ADICT_DCHECK(bit_len % symbol_bits_ == 0);
  const uint64_t num_symbols = bit_len / symbol_bits_;
  for (uint64_t i = 0; i < num_symbols; ++i) {
    ExpandSymbol(static_cast<uint32_t>(in->ReadBits(symbol_bits_)), out);
  }
}

size_t RePairCodec::TableBytes() const {
  // Only the decode-side grammar is persisted with a read-only dictionary;
  // the pair -> rule map is construction-time state.
  return rules_.size() * sizeof(rules_[0]);
}

}  // namespace adict
