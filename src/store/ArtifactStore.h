//===- store/ArtifactStore.h - Tiered artifact cache ------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One coherent caching layer for every deterministic artifact in the
/// pipeline, replacing the three ad-hoc mechanisms that grew before it
/// (per-type call_once maps in SimulationService, a matrix-only disk
/// store, and the shard coordinator's bespoke pre-warm).
///
/// The store is tiered:
///
///   memory tier   size-accounted LRU over shared_ptr values. Every
///                 completed entry is charged its codec-reported byte
///                 size; when a limit is set, least-recently-used entries
///                 are evicted until the total fits (the entry being
///                 inserted is never evicted, so a single oversized
///                 artifact overshoots until the next insertion).
///                 Eviction never invalidates live references — holders
///                 keep their shared_ptr; only the cache forgets.
///
///   disk tier     optional directory of per-artifact files (one file per
///                 ArtifactKey, extension per type). Bodies are produced
///                 by per-type codecs that serialize doubles as raw
///                 IEEE-754 hex (exact round trips); the store frames
///                 every file with the whole-file FNV-1a checksum from
///                 support/Serial.h and writes via write-then-rename, so
///                 torn writes, truncation, and bit flips are detected
///                 and fall back to recompute (healing the file).
///
/// Lookups are single-flight: concurrent get() calls for one key block on
/// the in-flight computation instead of duplicating it, per entry (other
/// keys proceed independently). A miss resolves disk-then-compute; a
/// compute writes back to disk. Nested get() calls from inside a compute
/// callback are allowed (no lock is held while computing) — the service
/// resolves MCFP components from inside the alias-bundle computation this
/// way.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_STORE_ARTIFACTSTORE_H
#define MARQSIM_STORE_ARTIFACTSTORE_H

#include "store/ArtifactKey.h"

#include <condition_variable>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

namespace marqsim {

/// The serialization contract of one artifact type. All three callbacks
/// are optional: a null Encode/Decode disables the disk tier for the call
/// (memory-only artifacts), a null Size charges zero bytes (the entry then
/// never contributes to the LRU budget).
template <typename T> struct ArtifactCodec {
  /// Serializes the artifact to a text body (the store adds the checksum
  /// trailer).
  std::function<std::string(const T &)> Encode;

  /// Parses a body back. Returning std::nullopt (stale dimensions, bad
  /// hex, trailing garbage) falls back to compute, which overwrites the
  /// rejected file.
  std::function<std::optional<T>(const std::string &)> Decode;

  /// In-memory footprint in bytes, used for LRU accounting.
  std::function<size_t(const T &)> Size;
};

/// Tiered (memory LRU over disk) content-addressed artifact cache.
/// Thread-safe; see the file comment for the tier semantics.
class ArtifactStore {
public:
  struct Options {
    /// Disk-tier directory; empty keeps the store memory-only. Created on
    /// demand; IO failures degrade to compute (best-effort tier).
    std::string CacheDir;

    /// Memory-tier budget in bytes; 0 means unbounded (no eviction).
    size_t MemoryLimitBytes = 0;
  };

  /// How a get() was satisfied.
  enum class Outcome {
    MemoryHit, ///< served from the memory tier (or an in-flight compute)
    DiskHit,   ///< decoded from the disk tier
    Computed,  ///< computed (and written back to the disk tier)
  };

  /// What a put() did with an injected body.
  enum class PutOutcome {
    Inserted,       ///< decoded and inserted into the memory tier
    AlreadyPresent, ///< the key was already resolved (body discarded)
    Rejected,       ///< the body failed to decode (nothing changed)
  };

  /// Cumulative accounting across every get().
  struct Stats {
    size_t MemoryHits = 0;
    size_t DiskHits = 0;
    size_t Computes = 0;
    /// Entries evicted from the memory tier (their bytes in EvictedBytes).
    size_t Evictions = 0;
    size_t EvictedBytes = 0;
    /// Bodies written to the disk tier.
    size_t DiskWrites = 0;
    /// Current and high-water memory-tier charge.
    size_t BytesInUse = 0;
    size_t PeakBytes = 0;
  };

  explicit ArtifactStore(Options Opts);

  ArtifactStore(const ArtifactStore &) = delete;
  ArtifactStore &operator=(const ArtifactStore &) = delete;

  /// Up-front validation of a prospective cache directory: an empty path
  /// is valid (disk tier off); otherwise the directory is created on
  /// demand and probed for writability. Returns false with a message
  /// naming the path and the failure (exists-but-is-a-file, unwritable),
  /// so entry points can reject a bad --cache-dir / $MARQSIM_CACHE_DIR
  /// instead of silently running uncached.
  static bool validateCacheDir(const std::string &Dir,
                               std::string *Error = nullptr);

  /// Resolves \p Key through the tiers: memory, then disk (via
  /// \p Codec.Decode), then \p Compute (persisting via \p Codec.Encode).
  /// Single-flight per key; \p Out (if given) reports which tier served
  /// the winner — callers blocked on an in-flight computation observe
  /// MemoryHit, mirroring "reused a concurrent caller's work".
  template <typename T>
  std::shared_ptr<const T> get(const ArtifactKey &Key,
                               const ArtifactCodec<T> &Codec,
                               const std::function<T()> &Compute,
                               Outcome *Out = nullptr) {
    std::shared_ptr<Entry> E = acquire(Key.Id);
    Outcome How = Outcome::MemoryHit;
    if (claim(*E)) {
      std::shared_ptr<const T> Value;
      try {
        if (Codec.Decode) {
          if (std::optional<std::string> Body = loadBody(Key)) {
            if (std::optional<T> Decoded = Codec.Decode(*Body)) {
              How = Outcome::DiskHit;
              Value = std::make_shared<const T>(std::move(*Decoded));
            }
          }
        }
        if (!Value) {
          How = Outcome::Computed;
          Value = std::make_shared<const T>(Compute());
          // Serializing is pure waste without a disk tier to write to.
          if (Codec.Encode && !Opts.CacheDir.empty())
            storeBody(Key, Codec.Encode(*Value));
        }
      } catch (...) {
        abandon(*E);
        throw;
      }
      const size_t Bytes = Codec.Size ? Codec.Size(*Value) : 0;
      publish(Key.Id, *E, std::move(Value), Bytes);
    }
    noteOutcome(How);
    if (Out)
      *Out = How;
    return std::static_pointer_cast<const T>(valueOf(*E));
  }

  /// Injects an already-encoded \p Body for \p Key — the receiving half of
  /// the cross-host artifact push. The body is decoded through \p Codec
  /// exactly as a disk-tier hit would be (same validation, same rejection
  /// of stale dimensions or bad hex), inserted into the memory tier, and —
  /// when a disk tier is configured — persisted so later processes warm
  /// from it too. A key that is already resolved (or has an in-flight
  /// computation, which put() waits out) reports AlreadyPresent and keeps
  /// the existing value: content-addressed keys make the two bodies
  /// interchangeable, and the resident value may already have references.
  template <typename T>
  PutOutcome put(const ArtifactKey &Key, const ArtifactCodec<T> &Codec,
                 const std::string &Body) {
    if (!Codec.Decode)
      return PutOutcome::Rejected;
    // Decode before touching the entry: a corrupt body must not claim it
    // (the key stays computable by a later get()).
    std::optional<T> Decoded = Codec.Decode(Body);
    if (!Decoded)
      return PutOutcome::Rejected;
    std::shared_ptr<Entry> E = acquire(Key.Id);
    if (!claim(*E))
      return PutOutcome::AlreadyPresent;
    std::shared_ptr<const T> Value;
    try {
      Value = std::make_shared<const T>(std::move(*Decoded));
      if (!Opts.CacheDir.empty())
        storeBody(Key, Body);
    } catch (...) {
      abandon(*E);
      throw;
    }
    const size_t Bytes = Codec.Size ? Codec.Size(*Value) : 0;
    publish(Key.Id, *E, std::move(Value), Bytes);
    return PutOutcome::Inserted;
  }

  /// The resolved value of \p Id, or nullptr. Type-erased: callers cast
  /// per the key's type prefix exactly as get() does. No LRU or stats
  /// effect.
  std::shared_ptr<const void> peekValue(const std::string &Id) const;

  /// Reads and checksum-verifies the disk body of \p Key without decoding
  /// it (a presence probe's disk check). nullopt when the disk tier is off
  /// or the file is missing/corrupt.
  std::optional<std::string> peekDiskBody(const ArtifactKey &Key) const {
    return loadBody(Key);
  }

  Stats stats() const;

  /// Current memory-tier charge (also in stats()).
  size_t bytesInUse() const;

private:
  /// One cached artifact. The type behind Value is fixed by the key's
  /// builder (Ids are type-prefixed), so the erased pointer is safe to
  /// cast back in get().
  struct Entry {
    /// Single-flight state, guarded by the store mutex: Pending until a
    /// caller claims the entry, Computing while that caller resolves it
    /// (others wait on the store's condition variable), Ready once the
    /// value is published. A failed resolution returns it to Pending.
    enum class State { Pending, Computing, Ready };
    State St = State::Pending;
    std::shared_ptr<const void> Value;
    size_t Bytes = 0;
    /// True once commit() charged the entry (eviction skips in-flight
    /// entries, which are not charged yet).
    bool Charged = false;
    /// Position in the LRU list (front = most recently used).
    std::list<std::string>::iterator LruPos;
  };

  /// Finds or creates the entry of \p Id and marks it most recently used.
  std::shared_ptr<Entry> acquire(const std::string &Id);

  /// Waits out an in-flight resolution of \p E, then returns true when
  /// the caller now owns its resolution (the entry was Pending and is now
  /// Computing) or false when it is Ready.
  bool claim(Entry &E);

  /// Publishes a claimed entry's \p Value, charges \p Bytes to \p Id
  /// (see commitLocked) and wakes every waiter.
  void publish(const std::string &Id, Entry &E,
               std::shared_ptr<const void> Value, size_t Bytes);

  /// Returns a claimed entry to Pending after a failed resolution and
  /// wakes the waiters, one of which claims it next.
  void abandon(Entry &E);

  /// The published value of a Ready entry.
  std::shared_ptr<const void> valueOf(const Entry &E) const;

  /// Charges \p Bytes to \p Id and evicts least-recently-used charged
  /// entries (never \p Id itself) until the budget fits. Mutex held.
  void commitLocked(const std::string &Id, size_t Bytes);

  void noteOutcome(Outcome How);

  /// Reads and checksum-verifies the disk body of \p Key. nullopt when
  /// the disk tier is off, the file is missing, or the checksum fails.
  std::optional<std::string> loadBody(const ArtifactKey &Key) const;

  /// Frames \p Body with the checksum trailer and writes it under \p Key
  /// via write-then-rename. Best-effort: failures just mean a future
  /// process recomputes.
  void storeBody(const ArtifactKey &Key, const std::string &Body);

  Options Opts;

  mutable std::mutex Mutex;
  std::condition_variable Resolved; // an entry left the Computing state
  std::map<std::string, std::shared_ptr<Entry>> Entries;
  std::list<std::string> Lru;
  Stats Counters;
};

} // namespace marqsim

#endif // MARQSIM_STORE_ARTIFACTSTORE_H
