#include "lsm/iterator.h"

#include <string>

namespace apmbench::lsm {

namespace {

/// N-way merge by (key, child index). Children must each be sorted with
/// unique keys; across children duplicates are allowed and are emitted
/// newest (lowest index) first.
class MergingIterator final : public Iterator {
 public:
  explicit MergingIterator(std::vector<std::unique_ptr<Iterator>> children)
      : children_(std::move(children)) {}

  bool Valid() const override { return current_ >= 0; }

  void SeekToFirst() override {
    for (auto& child : children_) child->SeekToFirst();
    FindSmallest();
  }

  void Seek(const Slice& target) override {
    for (auto& child : children_) child->Seek(target);
    FindSmallest();
  }

  void Next() override {
    children_[current_]->Next();
    FindSmallest();
  }

  Slice key() const override { return children_[current_]->key(); }
  Slice value() const override { return children_[current_]->value(); }
  bool IsTombstone() const override {
    return children_[current_]->IsTombstone();
  }
  uint64_t seq() const override { return children_[current_]->seq(); }

  Status status() const override {
    for (const auto& child : children_) {
      Status s = child->status();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  void FindSmallest() {
    current_ = -1;
    for (int i = 0; i < static_cast<int>(children_.size()); i++) {
      if (!children_[i]->Valid()) continue;
      if (current_ < 0) {
        current_ = i;
        continue;
      }
      int cmp = children_[i]->key().Compare(children_[current_]->key());
      // Ties are won by the newest entry so duplicates stream newest-first.
      if (cmp < 0 ||
          (cmp == 0 && children_[i]->seq() > children_[current_]->seq())) {
        current_ = i;
      }
    }
  }

  std::vector<std::unique_ptr<Iterator>> children_;
  int current_ = -1;
};

/// Collapses duplicate keys (keeping the first, i.e. newest, occurrence)
/// and optionally hides tombstones. The input stays positioned on the
/// surviving entry, so value(), seq() and IsTombstone() come from it; the
/// key is kept in last_key_ because shadowed duplicates are detected
/// after the input has moved on.
class DedupIterator final : public Iterator {
 public:
  DedupIterator(std::unique_ptr<Iterator> input, bool skip_tombstones,
                const Slice& limit)
      : input_(std::move(input)),
        skip_tombstones_(skip_tombstones),
        limit_(limit) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    input_->SeekToFirst();
    has_last_key_ = false;
    Settle();
  }

  void Seek(const Slice& target) override {
    input_->Seek(target);
    has_last_key_ = false;
    Settle();
  }

  void Next() override {
    input_->Next();
    Settle();
  }

  Slice key() const override { return Slice(last_key_); }
  Slice value() const override { return input_->value(); }
  bool IsTombstone() const override { return input_->IsTombstone(); }
  uint64_t seq() const override { return input_->seq(); }
  Status status() const override { return input_->status(); }

 private:
  /// Advances input_ past shadowed duplicates and (optionally) deleted
  /// keys, stopping on the surviving entry or at the first key >= limit_.
  void Settle() {
    valid_ = false;
    while (input_->Valid()) {
      Slice k = input_->key();
      if (has_last_key_ && k == Slice(last_key_)) {
        input_->Next();  // shadowed by a newer entry already emitted
        continue;
      }
      if (!limit_.empty() && k.Compare(limit_) >= 0) return;
      // Newest entry for this key.
      last_key_.assign(k.data(), k.size());
      has_last_key_ = true;
      if (skip_tombstones_ && input_->IsTombstone()) {
        input_->Next();
        continue;
      }
      valid_ = true;
      return;
    }
  }

  std::unique_ptr<Iterator> input_;
  bool skip_tombstones_;
  Slice limit_;
  bool valid_ = false;
  bool has_last_key_ = false;
  std::string last_key_;
};

}  // namespace

std::unique_ptr<Iterator> NewMergingIterator(
    std::vector<std::unique_ptr<Iterator>> children) {
  return std::make_unique<MergingIterator>(std::move(children));
}

std::unique_ptr<Iterator> NewDedupIterator(std::unique_ptr<Iterator> input,
                                           bool skip_tombstones,
                                           const Slice& limit) {
  return std::make_unique<DedupIterator>(std::move(input), skip_tombstones,
                                         limit);
}

}  // namespace apmbench::lsm
