#ifndef APMBENCH_LSM_ROW_H_
#define APMBENCH_LSM_ROW_H_

#include <cstring>
#include <string>

#include "common/slice.h"

namespace apmbench::lsm {

/// Rows. A key's row is its bytes before the first '\0', or the whole key
/// if it holds none: an HBase cell key is row + '\0' + column, and a key
/// without a '\0' (every Cassandra key) is its own row. The cells of row R
/// are exactly the keys in [R + '\0', R + '\x01'). Table filters hold rows
/// (see TableBuilder), so a read confined to one row can skip every table
/// whose filter rules that row out.

/// The row of `key`; points into `key`.
inline Slice RowOf(const Slice& key) {
  const void* sep = memchr(key.data(), '\0', key.size());
  if (sep == nullptr) return key;
  return Slice(key.data(),
               static_cast<size_t>(static_cast<const char*>(sep) - key.data()));
}

/// The first key of `row`'s cells: row + '\0'.
inline std::string RowStart(const Slice& row) {
  std::string key = row.ToString();
  key.push_back('\0');
  return key;
}

/// The exclusive end of `row`'s cells: row + '\x01'.
inline std::string RowLimit(const Slice& row) {
  std::string key = row.ToString();
  key.push_back('\x01');
  return key;
}

/// True when every key in [start, limit) belongs to one row, which is
/// then stored in `*row` (pointing into `start`): `start` holds a '\0'
/// and `limit` is non-empty and at most RowLimit(RowOf(start)).
inline bool RangeWithinOneRow(const Slice& start, const Slice& limit,
                              Slice* row) {
  const Slice r = RowOf(start);
  if (r.size() == start.size() || limit.empty()) return false;
  *row = r;
  if (!limit.StartsWith(r)) return limit.Compare(r) < 0;
  if (limit.size() == r.size()) return true;  // limit == r < start
  const char next = limit[r.size()];
  return next == '\0' || (next == '\x01' && limit.size() == r.size() + 1);
}

}  // namespace apmbench::lsm

#endif  // APMBENCH_LSM_ROW_H_
