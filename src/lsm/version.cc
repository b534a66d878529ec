#include "lsm/version.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/slice.h"

namespace apmbench::lsm {

namespace {
constexpr uint64_t kManifestMagic = 0x41504d4d414e4632ull;  // "APMMANF2"
}  // namespace

VersionSet::VersionSet(const Options& options, Env* env)
    : options_(options), env_(env), levels_(Options::kNumLevels) {}

std::string VersionSet::ManifestPath() const {
  return options_.dir + "/MANIFEST";
}

uint64_t VersionSet::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const auto& f : levels_[level]) total += f.file_size;
  return total;
}

uint64_t VersionSet::TotalFiles() const {
  uint64_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

Status VersionSet::Persist() {
  std::string body;
  PutFixed64(&body, kManifestMagic);
  PutFixed64(&body, next_file_number_.load());
  PutFixed64(&body, last_seq_);
  PutFixed64(&body, log_number_);
  uint32_t count = 0;
  for (const auto& level : levels_) count += level.size();
  PutFixed32(&body, count);
  for (int level = 0; level < Options::kNumLevels; level++) {
    for (const auto& f : levels_[level]) {
      PutFixed32(&body, static_cast<uint32_t>(level));
      PutFixed64(&body, f.number);
      PutFixed64(&body, f.file_size);
      PutFixed64(&body, f.num_entries);
      PutFixed32(&body, f.format_version);
      PutLengthPrefixedSlice(&body, Slice(f.smallest));
      PutLengthPrefixedSlice(&body, Slice(f.largest));
    }
  }
  PutFixed32(&body, MaskCrc(Crc32c(body.data(), body.size())));

  std::string tmp = ManifestPath() + ".tmp";
  APM_RETURN_IF_ERROR(env_->WriteStringToFile(tmp, Slice(body)));
  APM_RETURN_IF_ERROR(env_->RenameFile(tmp, ManifestPath()));
  // The rename is atomic but only durable once the directory entry is
  // fsynced; without this a power loss can roll the manifest back to the
  // previous state (which recovery tolerates) — or leave nothing at all
  // on filesystems that journal lazily.
  return env_->SyncDir(options_.dir);
}

Status VersionSet::Recover(bool* found) {
  *found = false;
  if (!env_->FileExists(ManifestPath())) return Status::OK();

  std::string body;
  APM_RETURN_IF_ERROR(env_->ReadFileToString(ManifestPath(), &body));
  if (body.size() < 8 + 8 + 8 + 8 + 4 + 4) {
    return Status::Corruption("manifest too short");
  }
  uint32_t stored_crc =
      UnmaskCrc(DecodeFixed32(body.data() + body.size() - 4));
  if (stored_crc != Crc32c(body.data(), body.size() - 4)) {
    return Status::Corruption("manifest checksum mismatch");
  }

  Slice in(body.data(), body.size() - 4);
  uint64_t magic;
  GetFixed64(&in, &magic);
  if (magic != kManifestMagic) {
    return Status::Corruption("bad manifest magic");
  }
  uint64_t next_file = 0;
  GetFixed64(&in, &next_file);
  next_file_number_.store(next_file);
  GetFixed64(&in, &last_seq_);
  GetFixed64(&in, &log_number_);
  uint32_t count;
  GetFixed32(&in, &count);

  levels_.assign(Options::kNumLevels, {});
  for (uint32_t i = 0; i < count; i++) {
    uint32_t level;
    FileMeta f;
    Slice smallest, largest;
    if (!GetFixed32(&in, &level) || level >= Options::kNumLevels ||
        !GetFixed64(&in, &f.number) || !GetFixed64(&in, &f.file_size) ||
        !GetFixed64(&in, &f.num_entries) ||
        !GetFixed32(&in, &f.format_version) ||
        !GetLengthPrefixedSlice(&in, &smallest) ||
        !GetLengthPrefixedSlice(&in, &largest)) {
      return Status::Corruption("bad manifest file record");
    }
    f.smallest = smallest.ToString();
    f.largest = largest.ToString();
    levels_[level].push_back(std::move(f));
  }
  *found = true;
  return Status::OK();
}

bool VersionSet::AnyClaimed(const std::vector<FileMeta>& files) const {
  for (const auto& f : files) {
    if (claimed_.count(f.number)) return true;
  }
  return false;
}

void VersionSet::ClaimFiles(const std::vector<FileMeta>& files) {
  for (const auto& f : files) claimed_.insert(f.number);
}

void VersionSet::ReleaseFiles(const std::vector<FileMeta>& files) {
  for (const auto& f : files) claimed_.erase(f.number);
}

Status VersionSet::LogAndApply(const VersionEdit& edit) {
  for (uint64_t number : edit.removed) {
    for (auto& level : levels_) {
      level.erase(std::remove_if(
                      level.begin(), level.end(),
                      [number](const FileMeta& f) { return f.number == number; }),
                  level.end());
    }
  }
  for (const auto& add : edit.added) {
    levels_[add.level].push_back(add.file);
  }
  // Keep levels >= 1 ordered by smallest key (they hold disjoint ranges
  // under leveled compaction).
  for (int level = 1; level < Options::kNumLevels; level++) {
    std::sort(levels_[level].begin(), levels_[level].end(),
              [](const FileMeta& a, const FileMeta& b) {
                return Slice(a.smallest).Compare(Slice(b.smallest)) < 0;
              });
  }
  if (edit.has_log_number) log_number_ = edit.log_number;
  return Persist();
}

}  // namespace apmbench::lsm
