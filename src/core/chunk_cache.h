// DecodedChunkCache: the per-compute-node cache of *decoded* snapshot
// chunks that backs the content-addressed restart data plane.
//
// Every mirroring module on a node shares one cache (a device cannot be
// built without it), so a chunk fetched from the repository (or copied from
// a peer) is decoded once per node — not once per rank — and every later
// rank on the node materializes it with a memory copy instead of any
// transfer. The deployment-wide PrefetchBus is the one record of which
// nodes' caches hold which content: restart fetches, peer copies and the
// parity tier's commit-time seeding (redundancy::Manager::encode_commit)
// all publish there, turning one instance's fetch or commit into a cheap
// intra-deployment peer copy for everyone else.
//
// Keys are content identities, not storage identities: a chunk that carries
// a real content digest (reduction pipeline) is keyed on (digest, logical
// length) so distinct ChunkIds with identical bytes share one cached copy;
// digest-less chunks (plain commits, phantom payloads) fall back to their
// globally-unique ChunkId.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "blob/types.h"
#include "common/buffer.h"
#include "common/rng.h"

namespace blobcr::core {

/// Content identity of a stored chunk (see file comment for the keying
/// rule). Zero-encoded holes have no key — they are materialized locally.
struct ChunkKey {
  std::uint64_t a = 0;  // content digest, or ChunkId when digest-less
  std::uint64_t b = 0;  // (logical_size << 1) | 1 for digest keys; 0 for id keys

  static ChunkKey of(const blob::ChunkLocation& loc) {
    if (loc.digest != 0) {
      return ChunkKey{loc.digest,
                      (static_cast<std::uint64_t>(loc.logical()) << 1) | 1};
    }
    return ChunkKey{loc.id, 0};
  }

  bool operator==(const ChunkKey&) const = default;
};

struct ChunkKeyHash {
  std::size_t operator()(const ChunkKey& k) const {
    return static_cast<std::size_t>(common::mix64(k.a ^ common::mix64(k.b)));
  }
};

class DecodedChunkCache {
 public:
  explicit DecodedChunkCache(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  DecodedChunkCache(const DecodedChunkCache&) = delete;
  DecodedChunkCache& operator=(const DecodedChunkCache&) = delete;

  /// The decoded bytes for `key`, or nullptr. A hit refreshes LRU order.
  /// The pointer is valid until the next put() (eviction may free it).
  const common::Buffer* get(const ChunkKey& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    return &it->second->data;
  }

  /// Inserts (or refreshes) a decoded chunk, evicting LRU entries to stay
  /// within the byte budget. Entries larger than the whole budget are not
  /// cached.
  void put(const ChunkKey& key, common::Buffer data) {
    if (data.size() > capacity_) return;
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;  // identical content by key; keep the resident copy
    }
    bytes_ += data.size();
    lru_.push_front(Entry{key, std::move(data)});
    map_[key] = lru_.begin();
    while (bytes_ > capacity_ && !lru_.empty()) {
      const Entry& victim = lru_.back();
      bytes_ -= victim.data.size();
      map_.erase(victim.key);
      lru_.pop_back();
      ++evictions_;
    }
  }

  /// Drops one entry (e.g. a parity block whose group was invalidated by
  /// GC — see redundancy::Manager). Returns false when absent.
  bool erase(const ChunkKey& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    bytes_ -= it->second->data.size();
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }

  /// Drops every entry (node reclaimed/reimaged). Counters are kept.
  void clear() {
    lru_.clear();
    map_.clear();
    bytes_ = 0;
  }

  std::uint64_t bytes() const { return bytes_; }
  std::size_t entries() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    ChunkKey key;
    common::Buffer data;
  };

  std::uint64_t capacity_;
  std::uint64_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<Entry> lru_;
  std::unordered_map<ChunkKey, std::list<Entry>::iterator, ChunkKeyHash> map_;
};

}  // namespace blobcr::core
