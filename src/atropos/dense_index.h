// Open-addressed key→slot index for the struct-of-arrays registries.
//
// Maps an application-provided 64-bit key (or a TaskId) to a dense slot
// number in a parallel array. Linear probing over a power-of-two table with
// backward-shift deletion keeps probes short without tombstones; emptiness is
// judged by a slot sentinel, so a key value of 0 is legal. Lookups, inserts,
// and erases are O(1) expected and allocation-free except when the live count
// crosses the load-factor high-water mark (first-touch growth) — steady-state
// register/free cycling at a stable population never reallocates, which is
// what keeps the ledger's event path allocation-free.
//
// Single-threaded by design, like the registries it indexes.

#ifndef SRC_ATROPOS_DENSE_INDEX_H_
#define SRC_ATROPOS_DENSE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace atropos {

class DenseKeyIndex {
 public:
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

  explicit DenseKeyIndex(size_t initial_capacity = 16) {
    size_t cap = 16;
    while (cap < initial_capacity) {
      cap <<= 1;
    }
    entries_.assign(cap, Entry{});
    mask_ = cap - 1;
  }

  size_t size() const { return size_; }

  // atropos-lint: alloc-free
  uint32_t Find(uint64_t key) const {
    size_t i = Hash(key) & mask_;
    while (true) {
      const Entry& e = entries_[i];
      if (e.slot == kNotFound) {
        return kNotFound;
      }
      if (e.key == key) {
        return e.slot;
      }
      i = (i + 1) & mask_;
    }
  }

  // Inserts or overwrites. Allocation-free unless the load factor crosses
  // the growth threshold (population high-water mark).
  void Put(uint64_t key, uint32_t slot) {
    if ((size_ + 1) * 4 > entries_.size() * 3) {
      Grow();
    }
    size_t i = Hash(key) & mask_;
    while (true) {
      Entry& e = entries_[i];
      if (e.slot == kNotFound) {
        e.key = key;
        e.slot = slot;
        size_++;
        return;
      }
      if (e.key == key) {
        e.slot = slot;
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  // Points an already-indexed key at a new slot (its registry entry moved).
  // atropos-lint: alloc-free
  void Repoint(uint64_t key, uint32_t slot) {
    size_t i = Hash(key) & mask_;
    while (entries_[i].key != key || entries_[i].slot == kNotFound) {
      i = (i + 1) & mask_;
    }
    entries_[i].slot = slot;
  }

  // Backward-shift deletion: no tombstones, probe chains stay contiguous.
  // atropos-lint: alloc-free
  bool Erase(uint64_t key) {
    size_t i = Hash(key) & mask_;
    while (true) {
      Entry& e = entries_[i];
      if (e.slot == kNotFound) {
        return false;
      }
      if (e.key == key) {
        break;
      }
      i = (i + 1) & mask_;
    }
    // Shift successors of the probe chain back over the hole.
    size_t hole = i;
    size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      const Entry& cand = entries_[j];
      if (cand.slot == kNotFound) {
        break;
      }
      const size_t home = Hash(cand.key) & mask_;
      // `cand` may move into the hole only if its home position does not lie
      // strictly between the hole and j (cyclically) — the standard
      // backward-shift condition.
      const bool movable = ((j - home) & mask_) >= ((j - hole) & mask_);
      if (movable) {
        entries_[hole] = cand;
        hole = j;
      }
    }
    entries_[hole] = Entry{};
    size_--;
    return true;
  }

 private:
  struct Entry {
    uint64_t key = 0;
    uint32_t slot = kNotFound;  // kNotFound marks an empty table cell
  };

  // splitmix64 finalizer: full-avalanche mixing so sequential keys (task ids,
  // monotone request keys) spread across the table.
  static uint64_t Hash(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.size() * 2, Entry{});
    mask_ = entries_.size() - 1;
    size_ = 0;
    for (const Entry& e : old) {
      if (e.slot != kNotFound) {
        Put(e.key, e.slot);
      }
    }
  }

  std::vector<Entry> entries_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_DENSE_INDEX_H_
