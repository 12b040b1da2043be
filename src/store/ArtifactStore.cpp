//===- store/ArtifactStore.cpp - Tiered artifact cache ------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "store/ArtifactStore.h"

#include <cassert>
#include <unistd.h>

#include <filesystem>
#include <fstream>

using namespace marqsim;

ArtifactStore::ArtifactStore(Options O) : Opts(std::move(O)) {}

bool ArtifactStore::validateCacheDir(const std::string &Dir,
                                     std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    if (Error)
      *Error = "cache directory '" + Dir + "': " + Message;
    return false;
  };
  if (Dir.empty())
    return true;
  std::error_code EC;
  std::filesystem::path Path(Dir);
  if (std::filesystem::exists(Path, EC)) {
    if (!std::filesystem::is_directory(Path, EC))
      return Fail("exists but is not a directory");
  } else {
    std::filesystem::create_directories(Path, EC);
    if (EC)
      return Fail("cannot create it (" + EC.message() + ")");
  }
  // Probe writability the portable way: actually create a file. access()
  // lies under fakeroot/ACLs, and std::filesystem has no permission probe.
  std::filesystem::path Probe =
      Path / (".marqsim-probe-" + std::to_string(::getpid()));
  {
    std::ofstream Out(Probe);
    if (!Out)
      return Fail("not writable");
  }
  std::filesystem::remove(Probe, EC);
  return true;
}

std::shared_ptr<ArtifactStore::Entry>
ArtifactStore::acquire(const std::string &Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::shared_ptr<Entry> &Ref = Entries[Id];
  if (!Ref) {
    Ref = std::make_shared<Entry>();
    Lru.push_front(Id);
    Ref->LruPos = Lru.begin();
  } else {
    Lru.splice(Lru.begin(), Lru, Ref->LruPos);
  }
  return Ref;
}

bool ArtifactStore::claim(Entry &E) {
  std::unique_lock<std::mutex> Lock(Mutex);
  Resolved.wait(Lock, [&] { return E.St != Entry::State::Computing; });
  if (E.St == Entry::State::Ready)
    return false;
  E.St = Entry::State::Computing;
  return true;
}

void ArtifactStore::publish(const std::string &Id, Entry &E,
                            std::shared_ptr<const void> Value, size_t Bytes) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    E.Value = std::move(Value);
    E.St = Entry::State::Ready;
    commitLocked(Id, Bytes);
  }
  Resolved.notify_all();
}

void ArtifactStore::abandon(Entry &E) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    E.St = Entry::State::Pending;
  }
  Resolved.notify_all();
}

std::shared_ptr<const void> ArtifactStore::valueOf(const Entry &E) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return E.Value;
}

void ArtifactStore::commitLocked(const std::string &Id, size_t Bytes) {
  auto It = Entries.find(Id);
  // Invariant: an in-flight entry is uncharged, eviction only removes
  // charged entries, and Charged is set only here — so the entry must
  // still be present at its own commit.
  assert(It != Entries.end() && "in-flight entry evicted before commit");
  if (It == Entries.end())
    return;
  Entry &E = *It->second;
  E.Bytes = Bytes;
  E.Charged = true;
  Counters.BytesInUse += Bytes;
  if (Counters.BytesInUse > Counters.PeakBytes)
    Counters.PeakBytes = Counters.BytesInUse;
  if (Opts.MemoryLimitBytes == 0)
    return;
  // Walk the LRU tail, evicting charged entries until the budget fits.
  // The entry just committed is exempt: evicting what the caller is about
  // to use would thrash, and a single over-budget artifact is better kept
  // (overshooting) than recomputed on every request.
  auto Pos = Lru.end();
  while (Counters.BytesInUse > Opts.MemoryLimitBytes && Pos != Lru.begin()) {
    --Pos;
    if (*Pos == Id)
      continue;
    auto Victim = Entries.find(*Pos);
    if (Victim == Entries.end() || !Victim->second->Charged)
      continue; // in-flight: not charged yet, nothing to reclaim
    Counters.BytesInUse -= Victim->second->Bytes;
    Counters.Evictions++;
    Counters.EvictedBytes += Victim->second->Bytes;
    Entries.erase(Victim);
    Pos = Lru.erase(Pos);
  }
}

void ArtifactStore::noteOutcome(Outcome How) {
  std::lock_guard<std::mutex> Lock(Mutex);
  switch (How) {
  case Outcome::MemoryHit:
    Counters.MemoryHits++;
    break;
  case Outcome::DiskHit:
    Counters.DiskHits++;
    break;
  case Outcome::Computed:
    Counters.Computes++;
    break;
  }
}

std::optional<std::string>
ArtifactStore::loadBody(const ArtifactKey &Key) const {
  if (Opts.CacheDir.empty())
    return std::nullopt;
  std::ifstream In(std::filesystem::path(Opts.CacheDir) / Key.fileName(),
                   std::ios::binary | std::ios::ate);
  if (!In)
    return std::nullopt;
  // One sized read into the string that is returned: the file is the
  // only copy of its bytes a load holds.
  const std::streamoff Size = In.tellg();
  if (Size < 0 || !In.seekg(0))
    return std::nullopt;
  std::optional<std::string> Text(std::in_place, static_cast<size_t>(Size),
                                  '\0');
  if (!In.read(Text->data(), Size))
    return std::nullopt;
  // Verify the whole-file checksum before handing any byte to a codec:
  // hex payloads would happily parse with a flipped bit, silently changing
  // the artifact and everything downstream of it.
  std::string_view Body;
  if (!serial::splitChecksummed(*Text, Body))
    return std::nullopt;
  Text->resize(Body.size()); // strip the trailer in place
  return Text;
}

void ArtifactStore::storeBody(const ArtifactKey &Key,
                              const std::string &Body) {
  if (Opts.CacheDir.empty())
    return;
  std::error_code EC;
  std::filesystem::create_directories(Opts.CacheDir, EC);
  if (EC)
    return;
  // Write-then-rename keeps concurrent processes from reading torn files.
  std::filesystem::path Final =
      std::filesystem::path(Opts.CacheDir) / Key.fileName();
  std::filesystem::path Tmp = Final;
  Tmp += "." + std::to_string(::getpid()) + ".tmp";
  {
    std::ofstream Out(Tmp);
    if (!Out)
      return;
    Out << serial::withChecksum(Body);
    if (!Out)
      return;
  }
  std::filesystem::rename(Tmp, Final, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return;
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters.DiskWrites++;
}

std::shared_ptr<const void>
ArtifactStore::peekValue(const std::string &Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Id);
  if (It == Entries.end() || !It->second->Charged)
    return nullptr;
  return It->second->Value;
}

ArtifactStore::Stats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

size_t ArtifactStore::bytesInUse() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters.BytesInUse;
}
